package explore

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
)

// cacheMode selects the pruning relation of a depth-first engine. The
// relations run from finest to coarsest, and recorder.terminal compares
// modes by that order: a terminal new in cacheLazy's relation is new in
// cacheHBR's too.
type cacheMode uint8

const (
	// cacheNone disables pruning: exhaustive enumeration.
	cacheNone cacheMode = iota
	// cacheHBR prunes prefixes whose regular HBR has been seen
	// before (HBR caching, Musuvathi & Qadeer). Sound by Thm 2.1.
	cacheHBR
	// cacheLazy prunes prefixes whose lazy HBR has been seen before
	// (lazy HBR caching). Sound by Thm 2.2 — the paper's immediate
	// application of the lazy relation.
	cacheLazy
)

// treeRule is a depth-first engine's expansion rule: which enabled
// threads a node may try, in which order, and what trying each one
// spends of the engine's bound.
type treeRule uint8

const (
	// ruleAll tries every enabled thread, lowest first, at no cost:
	// exhaustive DFS and the HBR-caching engines.
	ruleAll treeRule = iota
	// rulePreempt is CHESS-style context bounding (Musuvathi &
	// Qadeer): the thread that ran the previous event is tried first,
	// free, and every other enabled thread costs one preemption while
	// that thread is still enabled. Switches at blocking or
	// terminating operations are free.
	rulePreempt
	// ruleDelay is delay bounding (Emmi, Qadeer & Rakamarić, POPL
	// 2011): the scheduler is deterministic — always the
	// lowest-numbered enabled thread — and the i-th enabled thread
	// costs i delays, one per thread it skips. With bound 0 the search
	// is a single schedule; each extra delay multiplies the space only
	// linearly in the points where it can be spent, an even more
	// aggressive (and even less complete) prioritisation than
	// preemption bounding.
	ruleDelay
)

// treeEngine is the one stateless depth-first search behind dfs, the
// HBR-caching engines, pb and db: it enumerates schedules depth-first,
// lets each node try the choices its rule allows within the bound, and
// optionally prunes prefixes whose happens-before class was seen
// before. Only ruleAll caches: under a bound, two prefixes of one
// class may have spent different amounts of it, so pruning the second
// could drop the states only its leftover bound reaches.
type treeEngine struct {
	rule  treeRule
	bound int
	mode  cacheMode
}

// NewDFS returns the exhaustive depth-first baseline engine.
func NewDFS() Engine { return &treeEngine{} }

// NewHBRCache returns the regular HBR caching engine.
func NewHBRCache() Engine { return &treeEngine{mode: cacheHBR} }

// NewLazyHBRCache returns the lazy HBR caching engine.
func NewLazyHBRCache() Engine { return &treeEngine{mode: cacheLazy} }

// NewPreemptionBounded returns a DFS engine restricted to schedules
// with at most bound preemptions; a negative bound means 0.
func NewPreemptionBounded(bound int) Engine {
	return &treeEngine{rule: rulePreempt, bound: max(bound, 0)}
}

// NewDelayBounded returns a delay-bounded enumeration engine; a
// negative bound means 0.
func NewDelayBounded(bound int) Engine {
	return &treeEngine{rule: ruleDelay, bound: max(bound, 0)}
}

// Name implements Engine.
func (e *treeEngine) Name() string {
	search := [...]string{cacheNone: "dfs", cacheHBR: "hbr-caching", cacheLazy: "lazy-hbr-caching"}[e.mode]
	switch e.rule {
	case rulePreempt:
		return fmt.Sprintf("pb%d-%s", e.bound, search)
	case ruleDelay:
		return fmt.Sprintf("db%d-%s", e.bound, search)
	}
	return search
}

// treeNode is one depth of the search: the choices the node may try,
// in order (choices[off:off+n] of the engine's shared choice slice),
// how many it has taken, and the bound spent on the path up to (not
// including) this state. Every rule's costs grow with the choice index
// and level off at maxCost, so trying choice i costs min(i, maxCost):
// maxCost is 0 for ruleAll, 1 for rulePreempt while the previous thread
// (choice 0) is still enabled and 0 once it is not, and the number of
// enabled threads for ruleDelay.
type treeNode struct {
	off, n  int
	next    int
	used    int
	maxCost int
}

func (n *treeNode) cost(i int) int { return min(i, n.maxCost) }

// expand appends n's choices to choices from the enabled threads en
// (non-empty), given the thread prev that ran the previous event (-1
// at the root), drops the choices the rest of the bound cannot afford,
// and returns the grown slice. Choice 0 is free and n.used never
// exceeds the bound, so one always remains.
func (e *treeEngine) expand(n *treeNode, choices, en []event.ThreadID, prev event.ThreadID) []event.ThreadID {
	n.off = len(choices)
	switch {
	case e.rule == rulePreempt && slices.Contains(en, prev):
		choices, n.maxCost = append(choices, prev), 1
		for _, t := range en {
			if t != prev {
				choices = append(choices, t)
			}
		}
	case e.rule == ruleDelay:
		choices, n.maxCost = append(choices, en...), len(en)
	default:
		choices = append(choices, en...)
	}
	n.n = len(choices) - n.off
	for n.used+n.cost(n.n-1) > e.bound {
		n.n--
	}
	return choices[:n.off+n.n]
}

// Explore implements Engine.
func (e *treeEngine) Explore(src model.Source, opt Options) Result {
	c := newCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)
	rec.unseen = e.mode

	var cache *digestSet
	if e.mode != cacheNone {
		cache = &digestSet{}
	}
	// fresh steps thread t and reports whether the new prefix's
	// happens-before class is unseen. A seen one is counted as a
	// prune: its continuation revisits an already-covered equivalence
	// class (Thm 2.1 / Thm 2.2).
	fresh := func(t event.ThreadID) bool {
		c.step(t)
		if cache == nil {
			return true
		}
		var fp hb.Fingerprint
		if e.mode == cacheLazy {
			fp = c.tr.LazyFingerprint()
		} else {
			fp = c.tr.HBFingerprint()
		}
		if cache.add(fp) {
			return true
		}
		rec.res.Pruned++
		return false
	}

	// The stack's nodes keep their choices in one slice, each node's
	// above its parent's, so a pop truncates it.
	var stack []treeNode
	var choices []event.ThreadID

	// descend extends the current execution to a terminal state,
	// truncation or cache prune, pushing one node per fresh state and
	// taking its first choice. It returns false when the search must
	// stop.
	descend := func() bool {
		for {
			if c.truncated() {
				rec.cutShort(c)
				return !rec.schedule()
			}
			en := c.enabled()
			if len(en) == 0 {
				rec.terminal(c)
				return !rec.schedule()
			}
			n := treeNode{next: 1}
			prev := event.ThreadID(-1)
			if d := len(stack); d > 0 {
				p := &stack[d-1]
				prev = choices[p.off+p.next-1]
				n.used = p.used + p.cost(p.next-1)
			}
			choices = e.expand(&n, choices, en, prev)
			stack = append(stack, n)
			if !fresh(choices[n.off]) {
				return !rec.schedule()
			}
		}
	}

	more := descend()
	for more && len(stack) > 0 {
		d := len(stack) - 1
		n := &stack[d]
		if n.next >= n.n {
			choices = choices[:n.off]
			stack = stack[:d]
			continue
		}
		t := choices[n.off+n.next]
		n.next++
		c.resetTo(d)
		if fresh(t) {
			more = descend()
		} else {
			more = !rec.schedule()
		}
	}
	return rec.finish(c)
}
