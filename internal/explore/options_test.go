package explore

import (
	"context"
	"strings"
	"testing"

	"repro/internal/event"
)

// TestOptionsValidate pins the structural validation batch drivers run
// before exploring a grid, and the work-stealing unit checks DPOR runs
// on top of it (a zero unit is the plain search).
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		unit    Unit
		wantErr string
	}{
		{"zero value", Options{}, Unit{}, ""},
		{"typical", Options{ScheduleLimit: 1000, MaxSteps: 200}, Unit{}, ""},
		{"negative limit", Options{ScheduleLimit: -1}, Unit{}, "negative ScheduleLimit"},
		{"negative max steps", Options{MaxSteps: -3}, Unit{}, "negative MaxSteps"},
		{"prefix beyond bound", Options{MaxSteps: 2}, Unit{Prefix: []event.ThreadID{0, 1, 0}, Steal: dropEscapes{}}, "exceeds step bound"},
		{"prefix without steal", Options{}, Unit{Prefix: []event.ThreadID{0}}, "needs a Steal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if err == nil {
				err = tc.unit.validate(tc.opt)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNilSourcePanics: handing an engine a nil program is a caller bug
// and must fail loudly, not explore an empty space.
func TestNilSourcePanics(t *testing.T) {
	for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewHBRCache(), NewRandomWalk(1)} {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("exploring a nil source did not panic")
				}
			}()
			eng.Explore(nil, Options{})
		})
	}
}

// TestZeroBudgetMeansUnlimited: a non-positive shared budget is "no
// budget" (nil), mirroring ScheduleLimit <= 0, and a DPOR unit given
// it explores the whole space.
func TestZeroBudgetMeansUnlimited(t *testing.T) {
	if b := NewBudget(0); b != nil {
		t.Errorf("NewBudget(0) = %v, want nil", b)
	}
	if b := NewBudget(-5); b != nil {
		t.Errorf("NewBudget(-5) = %v, want nil", b)
	}
	src := curatedSharedCounter()
	full := NewDPOR(false).Explore(src, Options{MaxSteps: 2000})
	unlimited := ExploreDPORUnit(src, Options{MaxSteps: 2000}, Unit{Budget: NewBudget(0)})
	if unlimited.Schedules != full.Schedules || unlimited.HitLimit {
		t.Errorf("zero budget limited the search: %+v vs %+v", unlimited, full)
	}
}

// TestCancelledCtxStopsEveryEngine: a context cancelled before the
// search starts stops every engine with Interrupted set. A systematic
// engine stops at its first schedule boundary — the counters cover
// exactly the one execution that ran. A sampler checks the context
// before each walk, as a single hostile walk can stall for the whole
// StallTimeout, so it runs none.
func TestCancelledCtxStopsEveryEngine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	groups := []struct {
		engines   []Engine
		schedules int
	}{
		{[]Engine{
			NewDFS(),
			NewDPOR(false),
			NewDPOR(true),
			NewLazyDPOR(),
			NewHBRCache(),
			NewLazyHBRCache(),
			NewPreemptionBounded(2),
			NewDelayBounded(2),
		}, 1},
		{[]Engine{NewRandomWalk(3), NewPCT(3, 3), NewPOS(3)}, 0},
	}
	src := curatedSharedCounter()
	for _, g := range groups {
		for _, eng := range g.engines {
			want := g.schedules
			t.Run(eng.Name(), func(t *testing.T) {
				res := eng.Explore(src, Options{MaxSteps: 2000, Ctx: ctx})
				if !res.Interrupted {
					t.Fatalf("cancelled context did not interrupt: %+v", res)
				}
				if res.Schedules != want {
					t.Errorf("interrupted search ran %d schedules, want %d", res.Schedules, want)
				}
				if err := res.CheckInvariant(); err != nil {
					t.Errorf("partial result breaks the invariant chain: %v", err)
				}
			})
		}
	}
}

// pollCtx reports cancellation after a fixed number of Err polls — a
// deterministic "deadline fires mid-search" for engines that check the
// context once per schedule boundary.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestCtxCancelMidSearch: a context that dies partway through the
// search leaves a consistent partial result — some but not all
// schedules explored, Interrupted set, invariant chain intact.
func TestCtxCancelMidSearch(t *testing.T) {
	src := curatedSharedCounter()
	full := NewDFS().Explore(src, Options{MaxSteps: 2000})
	if full.Schedules <= 4 {
		t.Fatalf("test program too small (%d schedules)", full.Schedules)
	}
	interrupted := NewDFS().Explore(src, Options{MaxSteps: 2000, Ctx: &pollCtx{Context: context.Background(), polls: 3}})
	if !interrupted.Interrupted {
		t.Fatalf("mid-search cancellation not reported: %+v", interrupted)
	}
	if interrupted.Schedules == 0 || interrupted.Schedules >= full.Schedules {
		t.Errorf("cancelled search explored %d of %d schedules, want a strict partial",
			interrupted.Schedules, full.Schedules)
	}
	if err := interrupted.CheckInvariant(); err != nil {
		t.Errorf("partial result breaks the invariant chain: %v", err)
	}
}
