package explore

import (
	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
)

// cacheMode selects the pruning relation of the depth-first engine.
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

// dfsEngine enumerates schedules depth-first, optionally pruning via
// happens-before caching.
type dfsEngine struct {
	mode cacheMode
}

// NewDFS returns the exhaustive depth-first baseline engine.
func NewDFS() Engine { return &dfsEngine{mode: cacheNone} }

// NewHBRCache returns the regular HBR caching engine.
func NewHBRCache() Engine { return &dfsEngine{mode: cacheHBR} }

// NewLazyHBRCache returns the lazy HBR caching engine.
func NewLazyHBRCache() Engine { return &dfsEngine{mode: cacheLazy} }

// Name implements Engine.
func (e *dfsEngine) Name() string {
	switch e.mode {
	case cacheHBR:
		return "hbr-caching"
	case cacheLazy:
		return "lazy-hbr-caching"
	default:
		return "dfs"
	}
}

// dfsNode is one depth of the enumeration: the enabled threads at that
// state and how many branches have been taken so far.
type dfsNode struct {
	enabled []event.ThreadID
	next    int
}

// Explore implements Engine.
func (e *dfsEngine) Explore(src model.Source, opt Options) Result {
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

	var stack []dfsNode
	var pool tidPool

	// descend extends the current execution to a terminal (or
	// truncation or cache prune), pushing one node per fresh state.
	// It returns false when the schedule limit fires.
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
			stack = append(stack, dfsNode{enabled: pool.copyOf(en), next: 1})
			c.step(en[0])
			if cache != nil && !cache.add(prefixFP()) {
				// The continuation from here revisits an
				// already-covered equivalence class
				// (Thm 2.1 / Thm 2.2): prune.
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
		n := &stack[d]
		if n.next >= len(n.enabled) {
			pool.put(n.enabled)
			stack = stack[:d]
			continue
		}
		t := n.enabled[n.next]
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
