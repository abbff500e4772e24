package explore

import (
	"testing"

	"repro/internal/progdsl"
)

// TestDelayZeroIsSingleSchedule: with no delays the scheduler is fully
// deterministic, so exactly one schedule is explored.
func TestDelayZeroIsSingleSchedule(t *testing.T) {
	res := NewDelayBounded(0).Explore(curatedSharedCounter(), Options{})
	if res.Schedules != 1 {
		t.Errorf("db0 explored %d schedules, want 1", res.Schedules)
	}
}

// TestDelayGrowsWithBudget: terminals grow monotonically with the
// delay budget and converge to the exhaustive count.
func TestDelayGrowsWithBudget(t *testing.T) {
	src := curatedSharedCounter()
	dfs := NewDFS().Explore(src, Options{})
	prev := 0
	last := 0
	for bound := 0; bound <= 10; bound++ {
		res := NewDelayBounded(bound).Explore(src, Options{})
		if err := res.CheckInvariant(); err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if res.Terminals < prev {
			t.Errorf("bound %d shrank terminals: %d < %d", bound, res.Terminals, prev)
		}
		prev = res.Terminals
		last = res.Terminals
	}
	if last != dfs.Schedules {
		t.Errorf("a large delay budget must recover DFS: %d vs %d", last, dfs.Schedules)
	}
}

// TestDelayStateSubset: delay-bounded states are always a subset of the
// exhaustive set.
func TestDelayStateSubset(t *testing.T) {
	for _, src := range soundnessZoo()[:8] {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			full := exploreStates(t, NewDFS(), src)
			all := map[string]bool{}
			for _, s := range full.States {
				all[s] = true
			}
			for _, bound := range []int{0, 1, 3} {
				res := NewDelayBounded(bound).Explore(src, Options{MaxSteps: 2000, RecordStates: true})
				for _, s := range res.States {
					if !all[s] {
						t.Fatalf("db%d found state outside the exhaustive set", bound)
					}
				}
			}
		})
	}
}

// TestDelayVsPreemptionOrdering: a delay is at least as restrictive as
// a preemption (every delay-d schedule uses at most d preemptions), so
// db(d) explores no more terminals than pb(d).
func TestDelayVsPreemptionOrdering(t *testing.T) {
	for _, src := range soundnessZoo()[:6] {
		for d := 0; d <= 3; d++ {
			db := NewDelayBounded(d).Explore(src, Options{MaxSteps: 2000})
			pb := NewPreemptionBounded(d).Explore(src, Options{MaxSteps: 2000})
			if db.Terminals > pb.Terminals {
				t.Errorf("%s: db%d terminals %d > pb%d terminals %d",
					src.Name(), d, db.Terminals, d, pb.Terminals)
			}
		}
	}
}

// TestIterativeDeepeningConverges: the CHESS loop finds the full state
// set of small programs and stops at its fixed point.
func TestIterativeDeepeningConverges(t *testing.T) {
	for _, mk := range []func(int) Engine{NewIterativePreemptionBounding, NewIterativeDelayBounding} {
		eng := mk(16)
		for _, src := range soundnessZoo()[:6] {
			full := exploreStates(t, NewDFS(), src)
			res := eng.Explore(src, Options{MaxSteps: 2000, RecordStates: true})
			if res.DistinctStates != full.DistinctStates {
				t.Errorf("%s on %s: %d states, exhaustive %d",
					eng.Name(), src.Name(), res.DistinctStates, full.DistinctStates)
			}
		}
	}
}

// TestIterativeDeepeningBudget: the loop respects the overall schedule
// budget across rounds.
func TestIterativeDeepeningBudget(t *testing.T) {
	res := NewIterativePreemptionBounding(8).Explore(curatedSharedCounter(), Options{ScheduleLimit: 7})
	if res.Schedules > 7+1 { // the final round may overshoot by its last schedule
		t.Errorf("budget overrun: %d schedules", res.Schedules)
	}
	if !res.HitLimit {
		t.Error("budget exhaustion must be reported")
	}
}

// TestIterativeFindsShallowBugFirst: the racy counter's bug appears in
// the first non-trivial round.
func TestIterativeFindsShallowBugFirst(t *testing.T) {
	b := progdsl.New("lost").AutoStart()
	x := b.Var("x")
	for i := 0; i < 2; i++ {
		th := b.Thread()
		th.Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	}
	res := NewIterativePreemptionBounding(4).Explore(b.Build(), Options{RecordStates: true})
	if res.DistinctStates != 2 {
		t.Errorf("states = %d, want 2", res.DistinctStates)
	}
	if res.Races == 0 {
		t.Error("the race must be reported")
	}
}

// TestBoundedEngineNames pins the new names.
func TestBoundedEngineNames(t *testing.T) {
	if NewDelayBounded(2).Name() != "db2-dfs" {
		t.Error("delay name wrong")
	}
	if NewIterativePreemptionBounding(3).Name() != "chess-pb3" {
		t.Error("chess-pb name wrong")
	}
	if NewIterativeDelayBounding(1).Name() != "chess-db1" {
		t.Error("chess-db name wrong")
	}
}

// TestNegativeBoundClampsToZero: the bounded constructors read a
// negative bound as 0, as NewPCT reads a depth below 1 as 1, so a
// negative bound can neither crash the search nor abandon paths.
func TestNegativeBoundClampsToZero(t *testing.T) {
	src := curatedSharedCounter()
	for _, pair := range [][2]Engine{
		{NewPreemptionBounded(-1), NewPreemptionBounded(0)},
		{NewPreemptionBoundedCache(-1, true), NewPreemptionBoundedCache(0, true)},
		{NewDelayBounded(-1), NewDelayBounded(0)},
	} {
		got, want := pair[0].Explore(src, Options{}), pair[1].Explore(src, Options{})
		if got.Engine != want.Engine || countersOf(got) != countersOf(want) {
			t.Errorf("%s explored %+v, want %s's %+v", got.Engine, countersOf(got), want.Engine, countersOf(want))
		}
	}
}
