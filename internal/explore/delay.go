package explore

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/model"
)

// delayEngine implements delay bounding (Emmi, Qadeer & Rakamarić's
// scheduling discipline, popularised by CHESS-family testers): the
// scheduler is deterministic — always the lowest-numbered enabled
// thread — except for at most `bound` "delays", each of which skips the
// thread the deterministic scheduler would have run. With bound 0 the
// search is a single schedule; each extra delay multiplies the space
// only linearly in the points where it can be spent, which makes delay
// bounding an even more aggressive (and even less complete) prioriti-
// sation than preemption bounding.
type delayEngine struct {
	bound int
}

// NewDelayBounded returns a delay-bounded enumeration engine.
func NewDelayBounded(bound int) Engine { return &delayEngine{bound: bound} }

// Name implements Engine.
func (e *delayEngine) Name() string { return fmt.Sprintf("db%d-dfs", e.bound) }

// dbNode is one depth of the delay-bounded enumeration: choices[0] is
// the deterministic pick (cost 0); choices[i] skips i enabled threads
// (cost i).
type dbNode struct {
	choices []event.ThreadID
	next    int
	used    int
}

// Explore implements Engine.
func (e *delayEngine) Explore(src model.Source, opt Options) Result {
	c := newCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)

	var tids tidPool
	var nodes nodePool[dbNode]

	// freeNode returns a popped node's buffers to the pools.
	freeNode := func(n *dbNode) {
		tids.put(n.choices)
		nodes.put(n)
	}

	makeNode := func(used int) *dbNode {
		en := c.enabled()
		n := nodes.get()
		*n = dbNode{used: used, choices: tids.get()}
		for i, t := range en {
			if used+i > e.bound {
				break
			}
			n.choices = append(n.choices, t)
		}
		return n
	}

	var stack []*dbNode

	descend := func() bool {
		for {
			if c.truncated() {
				rec.cutShort(c)
				return !rec.schedule()
			}
			if c.terminal() {
				rec.terminal(c)
				return !rec.schedule()
			}
			used := 0
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				used = parent.used + parent.next - 1
			}
			n := makeNode(used)
			stack = append(stack, n)
			n.next = 1
			c.step(n.choices[0])
		}
	}

	if !descend() {
		return rec.finish(c)
	}
	for len(stack) > 0 {
		d := len(stack) - 1
		n := stack[d]
		if n.next >= len(n.choices) {
			freeNode(n)
			stack = stack[:d]
			continue
		}
		t := n.choices[n.next]
		n.next++
		c.resetTo(d)
		c.step(t)
		if !descend() {
			break
		}
	}
	return rec.finish(c)
}

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
// bounds 0..maxBound.
func NewIterativePreemptionBounding(maxBound int) Engine {
	return &iterEngine{
		mk:       NewPreemptionBounded,
		name:     fmt.Sprintf("chess-pb%d", maxBound),
		maxBound: maxBound,
	}
}

// NewIterativeDelayBounding returns the analogous loop over delay
// bounds 0..maxBound.
func NewIterativeDelayBounding(maxBound int) Engine {
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
