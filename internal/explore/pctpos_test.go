package explore

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestPCTChangePoints pins the change-point draw: depth d plants d−1
// points, each uniformly in [1, k]; depth 1 (and below) plants none —
// the degenerate pure-priority-walk case — and a degenerate k still
// yields valid points.
func TestPCTChangePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if pts := pctChangePoints(rng, 1, 100, nil); pts != nil {
		t.Errorf("depth 1 planted change points: %v", pts)
	}
	if pts := pctChangePoints(rng, 0, 100, nil); pts != nil {
		t.Errorf("depth 0 planted change points: %v", pts)
	}
	for _, d := range []int{2, 3, 5} {
		const k = 37
		pts := pctChangePoints(rng, d, k, nil)
		if len(pts) != d-1 {
			t.Fatalf("depth %d planted %d points, want %d", d, len(pts), d-1)
		}
		for _, p := range pts {
			if p < 1 || p > k {
				t.Errorf("depth %d: change point %d outside [1, %d]", d, p, k)
			}
		}
	}
	// k < 1 must not panic rand.Intn: the clamp pins every point to 1.
	for _, p := range pctChangePoints(rng, 3, 0, nil) {
		if p != 1 {
			t.Errorf("k=0 change point %d, want 1", p)
		}
	}
	// The draw is deterministic in the rng stream.
	a := pctChangePoints(rand.New(rand.NewSource(7)), 4, 50, nil)
	b := pctChangePoints(rand.New(rand.NewSource(7)), 4, 50, nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same rng seed drew different points: %v vs %v", a, b)
	}
}

// TestEstimateEvents: the probe measures the deterministic schedule's
// length, is bounded by maxSteps, and never reports less than 1.
func TestEstimateEvents(t *testing.T) {
	src := curatedDeadlockable()
	k := estimateEvents(nil, src, model.MachineConfig{}, 2000)
	if k < 1 {
		t.Fatalf("estimate %d, want >= 1", k)
	}
	if k2 := estimateEvents(nil, src, model.MachineConfig{}, 2000); k2 != k {
		t.Errorf("probe not deterministic: %d vs %d", k, k2)
	}
	if capped := estimateEvents(nil, src, model.MachineConfig{}, 3); capped > 3 {
		t.Errorf("estimate %d exceeds the maxSteps bound 3", capped)
	}
}

// TestPCTPOSSeedReproducible: two runs of the same seeded engine under
// the same options produce byte-identical Results — walk i is a pure
// function of (seed, i) and the program — while a different seed walks
// a different sample (its per-walk rng streams differ even when the
// aggregate counters happen to coincide).
func TestPCTPOSSeedReproducible(t *testing.T) {
	src := curatedDeadlockable()
	opt := Options{ScheduleLimit: 60, MaxSteps: 2000, RecordStates: true}
	for _, mk := range []func(seed int64) Engine{
		func(seed int64) Engine { return NewPCT(seed, 3) },
		func(seed int64) Engine { return NewPOS(seed) },
	} {
		a := mk(5).Explore(src, opt)
		b := mk(5).Explore(src, opt)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different Results:\n a=%+v\n b=%+v", a.Engine, a, b)
		}
		if err := a.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", a.Engine, err)
		}
	}
}

// TestPCTDepthMatchesBugDepth exercises the defining property of PCT:
// the lock-order-inversion deadlock is a depth-2 bug (it needs one
// preemption inside a critical section), so d = 1 — a pure priority
// walk that never preempts a runnable thread — provably cannot find
// it, while d = 2 plants exactly the change point it needs and cracks
// it within a modest budget.
func TestPCTDepthMatchesBugDepth(t *testing.T) {
	src := curatedDeadlockable()
	opt := Options{ScheduleLimit: 200, MaxSteps: 2000}
	if res := NewPCT(1, 1).Explore(src, opt); res.Deadlocks != 0 {
		t.Errorf("pct d=1 never preempts, yet found %d deadlocks of a depth-2 bug", res.Deadlocks)
	}
	if res := NewPCT(1, 2).Explore(src, opt); res.Deadlocks == 0 {
		t.Error("pct d=2 (seed 1, 200 walks) should hit the depth-2 deadlock")
	}
	// Depth below 1 clamps to the degenerate d=1 engine.
	if got, want := NewPCT(1, 0).Name(), NewPCT(1, 1).Name(); got != want {
		t.Errorf("depth clamp: name %q, want %q", got, want)
	}
}

// TestPCTPOSFindViolations: both samplers crack the curated deadlock
// within a modest budget and report it through the standard first-bug
// fields; the engine names embed the seed so recorded Results identify
// the reproducible configuration.
func TestPCTPOSFindViolations(t *testing.T) {
	src := curatedDeadlockable()
	opt := Options{ScheduleLimit: 200, MaxSteps: 2000, StopAtFirstBug: true}
	for eng, wantName := range map[Engine]string{
		NewPCT(1, 3): "pct3[s1]",
		NewPOS(1):    "pos[s1]",
	} {
		if eng.Name() != wantName {
			t.Errorf("engine name %q, want %q", eng.Name(), wantName)
		}
		res := eng.Explore(src, opt)
		if res.FirstViolation == nil || res.ViolationKind != "deadlock" {
			t.Errorf("%s: violation not captured: kind=%q", eng.Name(), res.ViolationKind)
			continue
		}
		if res.HitLimit {
			t.Errorf("%s: first-bug stop must not report HitLimit", eng.Name())
		}
		if res.FirstBugSchedule < 1 || res.FirstBugSchedule > res.Schedules {
			t.Errorf("%s: FirstBugSchedule %d outside [1, %d]", eng.Name(), res.FirstBugSchedule, res.Schedules)
		}
		// The recorded schedule replays to the deadlock — the property
		// the counterexample pipeline depends on.
		c := newCursor(src, Options{MaxSteps: 2000})
		for _, tid := range res.FirstViolation {
			c.step(tid)
		}
		if !c.m.Deadlocked() {
			t.Errorf("%s: recorded first-violation schedule does not replay to the deadlock", eng.Name())
		}
		c.close()
	}
}

// TestPCTPOSBudgetSemantics: the walk budget mirrors the random-walk
// baseline — ScheduleLimit walks run, HitLimit marks the exhausted
// budget, and the walk count is exact.
func TestPCTPOSBudgetSemantics(t *testing.T) {
	src := curatedMixedMutexVar()
	opt := Options{ScheduleLimit: 25, MaxSteps: 2000}
	for _, eng := range []Engine{NewPCT(2, 3), NewPOS(2)} {
		res := eng.Explore(src, opt)
		if res.Schedules != 25 {
			t.Errorf("%s: %d schedules, want exactly 25", eng.Name(), res.Schedules)
		}
		if !res.HitLimit {
			t.Errorf("%s: exhausted walk budget must set HitLimit", eng.Name())
		}
		if !strings.Contains(res.Engine, "[s2]") {
			t.Errorf("%s: recorded engine %q does not carry the seed", eng.Name(), res.Engine)
		}
	}
}
