package explore

import (
	"testing"

	"repro/internal/progdsl"
)

// divergeRacy builds the canonical conditional-divergence program:
// t1 is stuck forever iff its read observes t0's store. Exactly the
// schedules where the read follows the write diverge.
func divergeRacy() *progdsl.Program {
	b := progdsl.New("diverge-racy").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	t0 := b.Thread()
	t0.WriteConst(x, 1)
	t1 := b.Thread()
	t1.Read(0, x)
	t1.If(progdsl.Ge(0, 1), func() {
		t1.Diverge()
	}, func() {
		t1.WriteConst(y, 1)
	})
	return b.Build()
}

// panicRacy: t1 panics iff its read observes t0's store.
func panicRacy() *progdsl.Program {
	b := progdsl.New("panic-racy").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	t0 := b.Thread()
	t0.WriteConst(x, 1)
	t1 := b.Thread()
	t1.Read(0, x)
	t1.If(progdsl.Ge(0, 1), func() {
		t1.Panic(42)
	}, func() {
		t1.WriteConst(y, 1)
	})
	return b.Build()
}

// TestDivergenceCountingAcrossEngines: every systematic engine agrees
// on the divergence count and keeps the accounting identity
// Schedules = Terminals + Pruned + Truncated + SleepBlocked +
// Divergences while still covering the healthy schedules.
func TestDivergenceCountingAcrossEngines(t *testing.T) {
	engines := map[string]Engine{
		"dfs":        NewDFS(),
		"dpor":       NewDPOR(false),
		"dpor+sleep": NewDPOR(true),
		"lazy-dpor":  NewLazyDPOR(),
		"hbr":        NewHBRCache(),
		"lazy-hbr":   NewLazyHBRCache(),
		"pb2":        NewPreemptionBounded(2),
		"db2":        NewDelayBounded(2),
	}
	for name, eng := range engines {
		undo, repl := exploreBackends(t, eng, divergeRacy(), Options{})
		for backend, res := range map[string]Result{"undo": undo, "replay": repl} {
			if res.Divergences == 0 {
				t.Errorf("%s/%s: no divergences counted", name, backend)
			}
			if got := res.Terminals + res.Pruned + res.Truncated + res.SleepBlocked + res.Divergences; got != res.Schedules {
				t.Errorf("%s/%s: accounting %d != schedules %d (%+v)", name, backend, got, res.Schedules, res)
			}
			// The read-first schedule terminates; it must survive the
			// hostile sibling.
			if res.Terminals == 0 {
				t.Errorf("%s/%s: healthy schedules lost", name, backend)
			}
			if err := res.CheckInvariant(); err != nil {
				t.Errorf("%s/%s: %v", name, backend, err)
			}
		}
	}
}

// TestDivergenceCountsAgreeWithDFS: exhaustive engines agree with the
// DFS reference exactly, per backend.
func TestDivergenceCountsAgreeWithDFS(t *testing.T) {
	ref := NewDFS().Explore(divergeRacy(), Options{})
	if ref.Divergences != 1 {
		t.Fatalf("dfs divergences = %d, want 1 (write-then-read)", ref.Divergences)
	}
	for _, eng := range []Engine{NewHBRCache(), NewLazyHBRCache()} {
		res := eng.Explore(divergeRacy(), Options{})
		if res.Divergences != ref.Divergences {
			t.Errorf("%s divergences = %d, want %d", res.Engine, res.Divergences, ref.Divergences)
		}
	}
}

// TestSamplersClassifyDivergence: the samplers route diverging walks
// into Divergences, not Terminals or Truncated, and never hang.
func TestSamplersClassifyDivergence(t *testing.T) {
	for _, eng := range []Engine{NewRandomWalk(7), NewPCT(7, 3), NewPOS(7)} {
		res := eng.Explore(divergeRacy(), Options{ScheduleLimit: 200})
		if res.Divergences == 0 {
			t.Errorf("%s: 200 walks found no divergence", res.Engine)
		}
		if got := res.Terminals + res.Pruned + res.Truncated + res.SleepBlocked + res.Divergences; got != res.Schedules {
			t.Errorf("%s: accounting %d != schedules %d", res.Engine, got, res.Schedules)
		}
		if err := res.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", res.Engine, err)
		}
	}
}

// TestPanicCountsAndPrecedence: a panicking schedule is a violation of
// kind "panic" with first-class counters, witnesses and first-bug
// support.
func TestPanicCountsAndPrecedence(t *testing.T) {
	res := NewDFS().Explore(panicRacy(), Options{})
	if res.Panics != 1 {
		t.Fatalf("Panics = %d, want 1 (%+v)", res.Panics, res)
	}
	if res.FirstViolation == nil || res.ViolationKind != "panic" {
		t.Fatalf("ViolationKind = %q, FirstViolation = %v; want a panic witness", res.ViolationKind, res.FirstViolation)
	}
	if res.Terminals == 0 {
		t.Fatal("healthy schedule lost next to the panicking one")
	}

	// StopAtFirstBug stops exactly on the panicking schedule.
	stop := NewDFS().Explore(panicRacy(), Options{StopAtFirstBug: true})
	if stop.FirstBugSchedule == 0 || stop.FirstBugSchedule != stop.Schedules {
		t.Fatalf("first-bug stop: FirstBugSchedule=%d Schedules=%d", stop.FirstBugSchedule, stop.Schedules)
	}

	// OnViolation witnesses carry the panic kind (the sibling
	// schedules' data-race witnesses are separate findings).
	panicWitnesses := 0
	NewDFS().Explore(panicRacy(), Options{OnViolation: func(w Witness) {
		if w.Kind == "panic" {
			panicWitnesses++
		}
	}})
	if panicWitnesses != 1 {
		t.Fatalf("panic witnesses = %d, want 1", panicWitnesses)
	}
}
