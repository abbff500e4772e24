// Parallel single-search exploration: ParallelDPOR spreads one DPOR
// search across workers (the work-stealing coordinator in steal.go),
// deduplicating terminal HBRs/states through one lock-striped
// explore.Dedup so the merged #HBRs/#lazy HBRs/#states counters stay
// exact.
//
// Work travels as bare choice prefixes (explore.Unit), and units run
// without sleep sets. Exactness guarantee, for deterministic programs
// explored to exhaustion (no limit, no deadline): every counter except
// Events — #schedules included — equals sequential DPOR's, whichever
// backend the cursor picks and for every worker count (Events differs
// because each unit replays its pinned prefix).
//
// With a schedule limit, the shared explore.Budget is honoured to
// within workers−1 schedules, but which schedules run first depends on
// worker interleaving.
package campaign

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/explore"
	"repro/internal/model"
)

// normWorkers normalises a worker-count knob.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// mergeUnits folds per-unit results into one Result whose distinct
// counters come from the shared dedup. Units must be passed in a
// fixed order (ParallelDPOR sorts them by unit key), so FirstViolation
// does not depend on the order units finished in; which units exist
// depends on worker timing, though (see FirstBugSchedule below).
func mergeUnits(name string, src model.Source, opt explore.Options, dedup *explore.Dedup, units []explore.Result) explore.Result {
	merged := explore.Result{Program: src.Name(), Engine: name}
	for _, u := range units {
		merged.Schedules += u.Schedules
		merged.Terminals += u.Terminals
		merged.Pruned += u.Pruned
		merged.Truncated += u.Truncated
		merged.SleepBlocked += u.SleepBlocked
		merged.Divergences += u.Divergences
		merged.Deadlocks += u.Deadlocks
		merged.AssertFailures += u.AssertFailures
		merged.Panics += u.Panics
		merged.LockErrors += u.LockErrors
		merged.Races += u.Races
		merged.Events += u.Events
		if u.MaxDepth > merged.MaxDepth {
			merged.MaxDepth = u.MaxDepth
		}
		merged.HitLimit = merged.HitLimit || u.HitLimit
		merged.Interrupted = merged.Interrupted || u.Interrupted
		if merged.ViolationKind == "" && u.ViolationKind != "" {
			merged.FirstViolation = u.FirstViolation
			merged.ViolationKind = u.ViolationKind
			// Schedules-to-first-bug in unit-key order: every schedule
			// of the units merged before this one counts as preceding
			// the bug. Donations and escapes depend on worker timing,
			// and under StopAtFirstBug so does how far each unit ran
			// before the queue drained, so the unit set, and hence this
			// index, can vary from run to run.
			merged.FirstBugSchedule = merged.Schedules - u.Schedules + u.FirstBugSchedule
		}
	}
	merged.DistinctHBRs, merged.DistinctLazyHBRs, merged.DistinctStates = dedup.Counts()
	if opt.RecordStates {
		merged.States = dedup.SortedStates()
	}
	return merged
}

// ParallelDPOR explores src with work-stealing DPOR: one DPOR search
// spans all workers, exchanging frontier units (donated pending
// backtrack branches, and backtrack points escaping a unit's prefix)
// over a striped steal deque with a shared claim table, so the
// partial-order reduction survives the fan-out. On exhausted spaces
// every counter except Events — including #schedules — is
// byte-identical to sequential explore.NewDPOR(false), whichever
// backend the cursor picks and for every worker count. Result.Steal
// carries the worker/unit statistics.
func ParallelDPOR(src model.Source, opt explore.Options, workers int) explore.Result {
	workers = normWorkers(workers)
	outcomes, dedup, stats := workStealDPOR(src, opt, workers)
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].key < outcomes[j].key })
	units := make([]explore.Result, len(outcomes))
	for i, o := range outcomes {
		units[i] = o.res
	}
	res := mergeUnits(fmt.Sprintf("pdpor[%d]", workers), src, opt, dedup, units)
	res.Steal = &stats
	return res
}

// parallelEngine adapts ParallelDPOR to explore.Engine so campaigns
// and benchmarks can treat it like any other engine.
type parallelEngine struct {
	workers int
}

// NewParallelDPOR returns the work-stealing ParallelDPOR as an
// explore.Engine.
func NewParallelDPOR(workers int) explore.Engine {
	return &parallelEngine{workers: workers}
}

// Name implements explore.Engine.
func (e *parallelEngine) Name() string {
	return fmt.Sprintf("pdpor[%d]", normWorkers(e.workers))
}

// Explore implements explore.Engine.
func (e *parallelEngine) Explore(src model.Source, opt explore.Options) explore.Result {
	return ParallelDPOR(src, opt, e.workers)
}
