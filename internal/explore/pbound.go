package explore

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
)

// pboundEngine is CHESS-style iterative context bounding (Musuvathi &
// Qadeer): depth-first enumeration restricted to schedules with at
// most `bound` preemptions. A preemption is a switch away from a
// thread that is still enabled; switches at blocking or terminating
// operations are free. HBR caching was originally proposed exactly in
// this context-bounded setting (MSR-TR-2007-12), so the engine
// optionally composes with either caching relation.
type pboundEngine struct {
	bound int
	mode  cacheMode
}

// NewPreemptionBounded returns a DFS engine restricted to schedules
// with at most bound preemptions.
func NewPreemptionBounded(bound int) Engine {
	return &pboundEngine{bound: bound}
}

// NewPreemptionBoundedCache composes preemption bounding with HBR
// caching (lazy=false) or lazy HBR caching (lazy=true) — the
// configuration of the Musuvathi–Qadeer technical report, upgraded
// with the paper's lazy relation.
func NewPreemptionBoundedCache(bound int, lazy bool) Engine {
	mode := cacheHBR
	if lazy {
		mode = cacheLazy
	}
	return &pboundEngine{bound: bound, mode: mode}
}

// Name implements Engine.
func (e *pboundEngine) Name() string {
	switch e.mode {
	case cacheHBR:
		return fmt.Sprintf("pb%d-hbr-caching", e.bound)
	case cacheLazy:
		return fmt.Sprintf("pb%d-lazy-hbr-caching", e.bound)
	default:
		return fmt.Sprintf("pb%d-dfs", e.bound)
	}
}

// pbNode is one depth of the bounded enumeration.
type pbNode struct {
	// choices are the explorable threads at this state, already
	// filtered by the preemption budget; costs[i] is 1 when taking
	// choices[i] consumes a preemption.
	choices []event.ThreadID
	costs   []int
	next    int
	// used is the number of preemptions consumed on the path up to
	// (not including) this state.
	used int
	// prev is the thread that executed the previous event, or -1 at
	// the root.
	prev event.ThreadID
	// prevEnabled records whether prev is still enabled here (a
	// switch away from it is then a preemption).
	prevEnabled bool
}

// Explore implements Engine.
func (e *pboundEngine) Explore(src model.Source, opt Options) Result {
	c := newCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)

	var cache *digestSet
	if e.mode != cacheNone {
		cache = &digestSet{}
	}
	prefixFP := func() hb.Fingerprint {
		if e.mode == cacheLazy {
			return c.tr.LazyFingerprint()
		}
		return c.tr.HBFingerprint()
	}

	var tids tidPool
	var ints slicePool[int]
	var nodes nodePool[pbNode]

	// freeNode returns a popped node's buffers to the pools.
	freeNode := func(n *pbNode) {
		tids.put(n.choices)
		ints.put(n.costs)
		nodes.put(n)
	}

	// makeNode computes the affordable choices at the current state.
	// The non-preemptive continuation (the previous thread, if still
	// enabled) is enumerated first, matching the CHESS search order.
	makeNode := func(prev event.ThreadID, used int) *pbNode {
		en := c.enabled()
		n := nodes.get()
		*n = pbNode{used: used, prev: prev, choices: tids.get(), costs: ints.get()}
		for _, t := range en {
			if t == prev {
				n.prevEnabled = true
			}
		}
		if n.prevEnabled {
			n.choices = append(n.choices, prev)
			n.costs = append(n.costs, 0)
		}
		for _, t := range en {
			if t == prev {
				continue
			}
			cost := 0
			if n.prevEnabled {
				cost = 1
			}
			if used+cost > e.bound {
				continue
			}
			n.choices = append(n.choices, t)
			n.costs = append(n.costs, cost)
		}
		return n
	}

	var stack []*pbNode

	// descend drives the execution to a terminal, prune or
	// truncation, taking the first affordable branch at each fresh
	// state. Returns false when the schedule limit fires.
	descend := func() bool {
		for {
			if c.truncated() {
				rec.cutShort(c)
				return !rec.schedule()
			}
			prev := event.ThreadID(-1)
			used := 0
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				prev = parent.choices[parent.next-1]
				used = parent.used + parent.costs[parent.next-1]
			}
			if c.terminal() {
				rec.terminal(c)
				return !rec.schedule()
			}
			n := makeNode(prev, used)
			if len(n.choices) == 0 {
				// Enabled threads exist but all switches exceed
				// the budget: the path is abandoned (counted
				// like a sleep-blocked execution).
				freeNode(n)
				rec.res.SleepBlocked++
				return !rec.schedule()
			}
			stack = append(stack, n)
			n.next = 1
			c.step(n.choices[0])
			if cache != nil && !cache.add(prefixFP()) {
				rec.res.Pruned++
				return !rec.schedule()
			}
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
		if cache != nil && !cache.add(prefixFP()) {
			rec.res.Pruned++
			if rec.schedule() {
				break
			}
			continue
		}
		if !descend() {
			break
		}
	}
	return rec.finish(c)
}
