package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
)

// exactBenches are exhaustively explorable corpus benchmarks spanning
// the violation classes (races, asserts, deadlocks) and family shapes.
var exactBenches = []string{
	"counter-racy-2x2",
	"philosophers-3",
	"ticket-2",
	"prodcons-2p1c-s1-i1",
	"lastzero-3",
	"synth-03",
}

func mustProgram(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return bm
}

// TestParallelDPORExactCoverage: work-stealing DPOR spreads one DPOR
// search across the workers, so on exhausted spaces its
// distinct-coverage counters and state set must equal sequential
// DPOR's (which in turn equal exhaustive DFS's), and it never explores
// fewer schedules. TestWorkStealDPORExact pins the stronger every-
// counter equality.
func TestParallelDPORExactCoverage(t *testing.T) {
	for _, name := range exactBenches {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			opt := explore.Options{MaxSteps: 2000, RecordStates: true}
			seq := explore.NewDPOR(false).Explore(bm.Program, opt)
			if seq.HitLimit {
				t.Fatalf("sequential DPOR unexpectedly hit a limit")
			}
			for _, workers := range []int{2, 4} {
				par := ParallelDPOR(bm.Program, opt, workers)
				if err := par.CheckInvariant(); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.DistinctHBRs != seq.DistinctHBRs ||
					par.DistinctLazyHBRs != seq.DistinctLazyHBRs ||
					par.DistinctStates != seq.DistinctStates {
					t.Errorf("workers=%d coverage mismatch: par hbrs=%d lazy=%d states=%d, seq hbrs=%d lazy=%d states=%d",
						workers, par.DistinctHBRs, par.DistinctLazyHBRs, par.DistinctStates,
						seq.DistinctHBRs, seq.DistinctLazyHBRs, seq.DistinctStates)
				}
				if !reflect.DeepEqual(par.States, seq.States) {
					t.Errorf("workers=%d state sets differ", workers)
				}
				if par.Schedules < seq.Schedules {
					t.Errorf("workers=%d explored fewer schedules (%d) than sequential DPOR (%d)",
						workers, par.Schedules, seq.Schedules)
				}
				if (par.Deadlocks > 0) != (seq.Deadlocks > 0) || (par.Races > 0) != (seq.Races > 0) {
					t.Errorf("workers=%d violation verdicts differ", workers)
				}
			}
		})
	}
}

// assertExact compares every deterministic counter of two results.
func assertExact(t *testing.T, workers int, seq, par explore.Result, compareStates bool) {
	t.Helper()
	type counts struct {
		Schedules, Terminals, Pruned, Truncated, SleepBlocked  int
		DistinctHBRs, DistinctLazyHBRs, DistinctStates         int
		Deadlocks, AssertFailures, LockErrors, Races, MaxDepth int
		HitLimit                                               bool
	}
	c := func(r explore.Result) counts {
		return counts{r.Schedules, r.Terminals, r.Pruned, r.Truncated, r.SleepBlocked,
			r.DistinctHBRs, r.DistinctLazyHBRs, r.DistinctStates,
			r.Deadlocks, r.AssertFailures, r.LockErrors, r.Races, r.MaxDepth, r.HitLimit}
	}
	if c(seq) != c(par) {
		t.Errorf("workers=%d counters differ:\n seq=%+v\n par=%+v", workers, c(seq), c(par))
	}
	if compareStates && !reflect.DeepEqual(seq.States, par.States) {
		t.Errorf("workers=%d state sets differ:\n seq=%v\n par=%v", workers, seq.States, par.States)
	}
	if err := par.CheckInvariant(); err != nil {
		t.Errorf("workers=%d: %v", workers, err)
	}
}

// TestParallelContextCancel: a cancelled context stops the
// work-stealing search and marks the result interrupted. Sequential
// DPOR explores many schedules on ticket-2, so stopping early is
// observable.
func TestParallelContextCancel(t *testing.T) {
	bm := mustProgram(t, "ticket-2")
	full := explore.NewDPOR(false).Explore(bm.Program, explore.Options{MaxSteps: 2000})
	if full.Schedules < 10 {
		t.Fatalf("sequential DPOR explored only %d schedules; cancellation would be unobservable", full.Schedules)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ParallelDPOR(bm.Program, explore.Options{MaxSteps: 2000, Ctx: ctx}, 2)
	if !res.Interrupted {
		t.Fatalf("expected Interrupted from a cancelled context; got %+v", res)
	}
	if res.Schedules >= full.Schedules {
		t.Fatalf("cancelled run explored the whole space (%d schedules)", res.Schedules)
	}
}

// TestParallelEngineAdapters: the explore.Engine adapter dispatches to
// the work-stealing search and carries the worker count in its name.
func TestParallelEngineAdapters(t *testing.T) {
	bm := mustProgram(t, "counter-racy-2x2")
	opt := explore.Options{ScheduleLimit: 200, MaxSteps: 2000}
	eng := NewParallelDPOR(2)
	if got := eng.Name(); got != "pdpor[2]" {
		t.Errorf("Name() = %q, want pdpor[2]", got)
	}
	res := eng.Explore(bm.Program, opt)
	if res.Schedules == 0 {
		t.Errorf("%s explored nothing", eng.Name())
	}
	if err := res.CheckInvariant(); err != nil {
		t.Errorf("%s: %v", eng.Name(), err)
	}
}
