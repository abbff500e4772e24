package explore

import (
	"runtime"
	"testing"
)

// Allocation-regression bounds, in heap allocations per explored
// event. The samplers' straight-line walks sit near 0.5 allocs/event:
// a walk resets its machine and tracker in place, so what remains is
// the walk's fresh coroutines and race log amortized over the walk
// (rebuilding both per walk measured ≈1.3). The stack engines' undo-backend paths sit
// at 0.07–0.16 on coarse-tail-3x3: the machine's undo log copies each
// step's coroutine into a recycled spare (finished threads' coroutines
// included) and the tracker's arena rewinds into its newest chunk, so
// a warm backtrack allocates nothing and what remains is per-search
// setup and engine bookkeeping. Leaving finished threads' coroutines
// unrecycled, so every redo of a thread's last step takes a fresh
// snapshot, measures 1.0–1.4; any per-step tracker snapshot work — the
// tr.Clone() the undo backend used to pay on every retained step — is
// ≥3 slab copies per event (a deep machine snapshot plus tracker Clone
// per depth costs ~20 allocs/event).
// lazyDPORAllocsPerEvent bounds lazy-dpor on a lock-heavy program,
// where every deferred lock race summarises two critical sections
// (measured ≈2.0; summaries built from fresh maps measure 7.2).
const (
	samplerAllocsPerEvent  = 1.0
	stackAllocsPerEvent    = 0.3
	lazyDPORAllocsPerEvent = 2.5
)

// allocsPerEvent measures eng's steady-state allocations per explored
// event on bm at the given options.
func allocsPerEvent(t *testing.T, eng Engine, opt Options, name string) float64 {
	t.Helper()
	bm := benchProgram(t, name)
	res := eng.Explore(bm.Program, opt)
	if res.Events == 0 {
		t.Fatalf("%s explored no events on %s", eng.Name(), name)
	}
	allocs := testing.AllocsPerRun(3, func() {
		eng.Explore(bm.Program, opt)
	})
	return allocs / float64(res.Events)
}

// TestSamplerAllocsStraightLine pins the sampler fast path: random,
// pct and pos walks never backtrack mid-execution, so their cursors
// must not retain per-step machine or tracker snapshots on the way
// forward (newWalkCursor builds a replay cursor). A regression that
// reintroduces per-step snapshot work — undo logging a coroutine
// checkpoint per event, or a tr.Clone() per retained step —
// multiplies allocations per event several-fold and fails the bound.
func TestSamplerAllocsStraightLine(t *testing.T) {
	opt := Options{ScheduleLimit: 50, MaxSteps: 2000}
	for _, eng := range []Engine{NewRandomWalk(1), NewPCT(1, 3), NewPOS(1)} {
		got := allocsPerEvent(t, eng, opt, "filesystem-2")
		if got > samplerAllocsPerEvent {
			t.Errorf("%s: %.2f allocs/event, want ≤ %.1f (per-step snapshot work on a straight-line walk?)",
				eng.Name(), got, samplerAllocsPerEvent)
		}
	}
}

// TestBacktrackAllocsO1 pins the tentpole: with the undo backend the
// whole (machine, tracker) pair backtracks in O(1) and, once warm,
// without allocating — no tr.Clone() per retained step, no fresh
// coroutine snapshot when a finished thread's last step is redone, and
// no fresh arena chunk after an undo across a chunk boundary (rare
// but 16 KiB each; internal/hb's TestUndoAcrossChunkAllocatesNothing
// pins it, since it barely moves this count). Deep
// per-depth snapshots cost ~60× this bound per event. The samplers
// backtrack to the initial state after every walk; their row pins
// that this resets the machine and tracker in place instead of
// rebuilding them.
func TestBacktrackAllocsO1(t *testing.T) {
	opt := Options{ScheduleLimit: 500, MaxSteps: 2000}
	for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewDPOR(true), NewLazyDPOR(), NewHBRCache(), NewLazyHBRCache(),
		NewPreemptionBounded(2), NewPreemptionBoundedCache(2, false), NewDelayBounded(4)} {
		got := allocsPerEvent(t, eng, opt, "coarse-tail-3x3")
		if got > stackAllocsPerEvent {
			t.Errorf("%s/undo: %.2f allocs/event, want ≤ %.2f (unrecycled coroutine snapshots, or a per-step tracker Clone?)",
				eng.Name(), got, stackAllocsPerEvent)
		}
	}
	for _, eng := range []Engine{NewRandomWalk(1), NewPCT(1, 3), NewPOS(1)} {
		got := allocsPerEvent(t, eng, opt, "coarse-tail-3x3")
		if got > samplerAllocsPerEvent {
			t.Errorf("%s: %.2f allocs/event, want ≤ %.1f (machine or tracker rebuilt per walk?)",
				eng.Name(), got, samplerAllocsPerEvent)
		}
	}
	if got := allocsPerEvent(t, NewLazyDPOR(), opt, "philosophers-3"); got > lazyDPORAllocsPerEvent {
		t.Errorf("lazy-dpor/undo on philosophers-3: %.2f allocs/event, want ≤ %.1f (critical-section summaries allocated per lock race?)",
			got, lazyDPORAllocsPerEvent)
	}
}

// samplerBytesPerWalk bounds a sampler's heap bytes per walk on a
// short-walk program. A walk's own work — its fresh coroutines and
// race log on a machine and tracker reset in place — measures
// ≈400–430 B; rebuilding the machine and tracker per walk measures
// ≈2 KB, and a math/rand source allocated per walk adds a 4.9 KB
// rngSource on top.
const samplerBytesPerWalk = 900

// TestSamplerBytesPerWalk complements TestSamplerAllocsStraightLine,
// whose per-event bound one large allocation per walk slips under: it
// bounds the bytes each walk allocates, measured as the TotalAlloc
// delta over a fixed walk count.
func TestSamplerBytesPerWalk(t *testing.T) {
	const walks = 400
	bm := benchProgram(t, "counter-racy-2x1")
	opt := Options{ScheduleLimit: walks, MaxSteps: 2000}
	for _, spec := range []string{"random", "pct", "pos"} {
		eng := samplerBySpec(spec, 1)
		eng.Explore(bm.Program, opt) // warm up lazily built state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.Explore(bm.Program, opt)
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / walks; got > samplerBytesPerWalk {
			t.Errorf("%s: %d bytes/walk, want ≤ %d (machine, tracker or rng source allocated per walk?)",
				spec, got, samplerBytesPerWalk)
		}
	}
}
