package explore

import (
	"runtime"
	"testing"
)

// Allocation-regression bounds, in heap allocations per explored
// event. The O(1)-backtracking paths sit near 2 allocs/event (arena
// growth, trace append doubling, per-walk machine rebuilds amortized
// over the walk); any per-step tracker snapshot work — the
// tr.Clone() the undo backend used to pay on every retained step —
// is ≥3 slab copies per event and blows straight past these bounds
// (the legacy deep-snapshot backend measures ~20 allocs/event).
const (
	samplerAllocsPerEvent = 3.0
	stackAllocsPerEvent   = 4.0
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
// forward (newWalkCursor forces the replay backend when no prefix is
// pinned). A regression that reintroduces per-step snapshot work —
// undo logging a coroutine checkpoint per event, or a tr.Clone() per
// retained step — multiplies allocations per event several-fold and
// fails the bound.
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
// whole (machine, tracker) pair backtracks in O(1), so the stack
// engines' allocations per explored event stay constant — no
// tr.Clone() per retained step. The legacy deep-snapshot backend
// pays ~10× this bound per event, so the old per-step-Clone code
// path cannot silently return.
func TestBacktrackAllocsO1(t *testing.T) {
	opt := Options{ScheduleLimit: 500, MaxSteps: 2000, Backend: BackendUndo}
	for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewDPOR(true)} {
		got := allocsPerEvent(t, eng, opt, "coarse-tail-3x3")
		if got > stackAllocsPerEvent {
			t.Errorf("%s/undo: %.2f allocs/event, want ≤ %.1f (per-step tracker Clone is back?)",
				eng.Name(), got, stackAllocsPerEvent)
		}
	}
}

// samplerBytesPerWalk bounds a sampler's heap bytes per walk on a
// short-walk program. A walk's own work — the machine rebuild and the
// trace — measures ≈2 KB; a math/rand source allocated per walk adds a
// 4.9 KB rngSource on top and fails it.
const samplerBytesPerWalk = 4000

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
			t.Errorf("%s: %d bytes/walk, want ≤ %d (an rng source allocated per walk?)",
				spec, got, samplerBytesPerWalk)
		}
	}
}
