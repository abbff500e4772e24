package explore

import (
	"fmt"

	"repro/internal/model"
)

// iterEngine is iterative bound deepening: run the bounded engine with
// bound 0, 1, 2, ... until either the schedule budget is exhausted or
// raising the bound stops discovering new terminal states — CHESS's
// iterative context bounding loop. Counts are cumulative and distinct
// across rounds.
type iterEngine struct {
	mk       func(bound int) Engine
	name     string
	maxBound int
}

// NewIterativePreemptionBounding returns the CHESS loop over preemption
// bounds 0..maxBound; a negative maxBound means 0.
func NewIterativePreemptionBounding(maxBound int) Engine {
	maxBound = max(maxBound, 0)
	return &iterEngine{
		mk:       NewPreemptionBounded,
		name:     fmt.Sprintf("chess-pb%d", maxBound),
		maxBound: maxBound,
	}
}

// NewIterativeDelayBounding returns the analogous loop over delay
// bounds 0..maxBound; a negative maxBound means 0.
func NewIterativeDelayBounding(maxBound int) Engine {
	maxBound = max(maxBound, 0)
	return &iterEngine{
		mk:       NewDelayBounded,
		name:     fmt.Sprintf("chess-db%d", maxBound),
		maxBound: maxBound,
	}
}

// Name implements Engine.
func (e *iterEngine) Name() string { return e.name }

// Explore implements Engine. Each round re-explores the space at a
// larger bound (the classic CHESS trade: simple and sound, at the cost
// of re-executing shallow schedules); distinctness counters therefore
// come from a merged recorder fed with per-round results.
func (e *iterEngine) Explore(src model.Source, opt Options) Result {
	merged := Result{Program: src.Name(), Engine: e.name}
	if opt.Observer != nil && opt.Counters == nil {
		// Give the rounds one shared counter set, so an observer sees
		// monotone cumulative totals instead of each round's private
		// counters restarting from zero.
		opt.Counters = NewCounters()
	}
	budget := opt.ScheduleLimit
	prevStates := -1
	for bound := 0; bound <= e.maxBound; bound++ {
		roundOpt := opt
		if budget > 0 {
			roundOpt.ScheduleLimit = budget
		}
		roundOpt.RecordStates = true
		res := e.mk(bound).Explore(src, roundOpt)
		merged.Schedules += res.Schedules
		merged.Terminals += res.Terminals
		merged.Pruned += res.Pruned
		merged.Truncated += res.Truncated
		merged.SleepBlocked += res.SleepBlocked
		merged.Divergences += res.Divergences
		merged.Events += res.Events
		if res.MaxDepth > merged.MaxDepth {
			merged.MaxDepth = res.MaxDepth
		}
		// A bound-(k+1) round re-explores everything a bound-k round
		// reached, so a *completed* later round subsumes earlier
		// distinct counters; a budget-truncated one may not. Taking
		// the maximum is correct either way.
		merged.DistinctHBRs = max(merged.DistinctHBRs, res.DistinctHBRs)
		merged.DistinctLazyHBRs = max(merged.DistinctLazyHBRs, res.DistinctLazyHBRs)
		merged.DistinctStates = max(merged.DistinctStates, res.DistinctStates)
		merged.Deadlocks = max(merged.Deadlocks, res.Deadlocks)
		merged.AssertFailures = max(merged.AssertFailures, res.AssertFailures)
		merged.Panics = max(merged.Panics, res.Panics)
		merged.LockErrors = max(merged.LockErrors, res.LockErrors)
		merged.Races = max(merged.Races, res.Races)
		if merged.ViolationKind == "" && res.ViolationKind != "" {
			merged.FirstViolation = res.FirstViolation
			merged.ViolationKind = res.ViolationKind
			// merged.Schedules already includes this round's, so the
			// rounds before it contributed Schedules − res.Schedules.
			merged.FirstBugSchedule = merged.Schedules - res.Schedules + res.FirstBugSchedule
		}
		if opt.RecordStates && len(res.States) >= len(merged.States) {
			merged.States = res.States
		}
		if opt.StopAtFirstBug && merged.ViolationKind != "" {
			break
		}
		if budget > 0 {
			budget -= res.Schedules
			if budget <= 0 {
				merged.HitLimit = true
				break
			}
		}
		if res.DistinctStates == prevStates && !res.HitLimit {
			// A full round at a higher bound found nothing new:
			// fixed point for this program shape.
			break
		}
		prevStates = res.DistinctStates
	}
	return merged
}
