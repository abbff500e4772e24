package hb

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/vclock"
)

func sp(c int32) event.Op { return event.Op{Kind: event.KindSpawn, Obj: c} }
func jn(c int32) event.Op { return event.Op{Kind: event.KindJoin, Obj: c} }

// undoSeq exercises every recorded event kind: spawn, variable
// accesses (with a race between t1 and t2), mutex handoff, join.
var undoSeq = []event.Event{
	ev(0, 0, sp(1)),
	ev(0, 1, sp(2)),
	ev(1, 0, wr(0, 1)),
	ev(2, 0, rd(0)), // racy read: no sync edge from t1's write
	ev(1, 1, lk(0)),
	ev(1, 2, wr(1, 7)),
	ev(1, 3, ul(0)),
	ev(2, 1, lk(0)),
	ev(2, 2, rd(1)), // ordered via the mutex: no race
	ev(2, 3, ul(0)),
	ev(0, 2, jn(1)),
	ev(0, 3, jn(2)),
}

// trackerAt replays the first k events of seq on a fresh tracker.
func trackerAt(seq []event.Event, k int) *Tracker {
	tr := NewTracker(3, 2, 1)
	for _, e := range seq[:k] {
		tr.ApplyFast(e)
	}
	return tr
}

// sameState compares everything a tracker exposes: fingerprints, race
// log, event count, and all per-thread clocks of both relations.
func sameState(t *testing.T, where string, got, want *Tracker) {
	t.Helper()
	if got.HBFingerprint() != want.HBFingerprint() {
		t.Errorf("%s: hb fingerprint %v, want %v", where, got.HBFingerprint(), want.HBFingerprint())
	}
	if got.LazyFingerprint() != want.LazyFingerprint() {
		t.Errorf("%s: lazy fingerprint %v, want %v", where, got.LazyFingerprint(), want.LazyFingerprint())
	}
	if got.Events() != want.Events() {
		t.Errorf("%s: %d events, want %d", where, got.Events(), want.Events())
	}
	if g, w := len(got.Races()), len(want.Races()); g != w {
		t.Errorf("%s: %d races, want %d", where, g, w)
	}
	for th := 0; th < want.nthreads; th++ {
		id := event.ThreadID(th)
		if !got.ThreadClock(id).Equal(want.ThreadClock(id)) {
			t.Errorf("%s: hbT[%d] = %v, want %v", where, th, got.ThreadClock(id), want.ThreadClock(id))
		}
		if !got.LazyThreadClock(id).Equal(want.LazyThreadClock(id)) {
			t.Errorf("%s: lazyT[%d] = %v, want %v", where, th, got.LazyThreadClock(id), want.LazyThreadClock(id))
		}
	}
}

// TestUndoToMatchesReference: rewinding to every mark restores exactly
// the state a fresh tracker reaches by replaying that prefix — across
// all event kinds, including the race log shrinking back.
func TestUndoToMatchesReference(t *testing.T) {
	tr := NewTracker(3, 2, 1)
	tr.EnableUndo()
	for i, e := range undoSeq {
		if m := tr.UndoMark(); m != i {
			t.Fatalf("mark %d before event %d", m, i)
		}
		tr.ApplyFast(e)
	}
	for k := len(undoSeq) - 1; k >= 0; k-- {
		tr.UndoTo(k)
		sameState(t, "UndoTo", tr, trackerAt(undoSeq, k))
	}
}

// TestUndoRandomWalk drives a random apply/undo interleaving (the DFS
// access pattern, including arena reuse after rewinds) and checks the
// live state against a reference replay at every step.
func TestUndoRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTracker(3, 2, 1)
	tr.EnableUndo()
	var trace []event.Event
	idx := make([]int32, 3)
	reindex := func() {
		idx[0], idx[1], idx[2] = 0, 0, 0
		for _, e := range trace {
			idx[e.Thread] = e.Index + 1
		}
	}
	ops := []event.Op{wr(0, 1), rd(0), wr(1, 2), rd(1), lk(0), ul(0)}
	for iter := 0; iter < 2000; iter++ {
		if len(trace) < 16 && rng.Intn(3) > 0 {
			th := event.ThreadID(rng.Intn(3))
			e := event.Event{Thread: th, Index: idx[th], Op: ops[rng.Intn(len(ops))]}
			idx[th]++
			tr.ApplyFast(e)
			trace = append(trace, e)
		} else if len(trace) > 0 {
			d := rng.Intn(len(trace) + 1)
			tr.UndoTo(d)
			trace = trace[:d]
			reindex()
		}
		ref := trackerAt(trace, len(trace))
		if tr.HBFingerprint() != ref.HBFingerprint() || tr.LazyFingerprint() != ref.LazyFingerprint() {
			t.Fatalf("iter %d: fingerprints diverged after %d events", iter, len(trace))
		}
		if len(tr.Races()) != len(ref.Races()) {
			t.Fatalf("iter %d: %d races, want %d", iter, len(tr.Races()), len(ref.Races()))
		}
	}
}

// writeRun returns n writes to variable 0 by alternating threads,
// numbered from idx (which it advances): three fresh 3-int clocks per
// event and no other arena use.
func writeRun(idx []int32, n int) []event.Event {
	out := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		th := event.ThreadID(i % 2)
		out = append(out, ev(th, idx[th], wr(0, int64(i))))
		idx[th]++
	}
	return out
}

// TestUndoAcrossChunkAllocatesNothing pins the arena's chunk rewind: a
// warm apply/undo cycle whose events overflow the current chunk
// allocates nothing. Without the rewind, every undo returns to the old
// chunk's nearly full tail and the next cycle makes another chunk.
func TestUndoAcrossChunkAllocatesNothing(t *testing.T) {
	tr := NewTracker(3, 2, 1)
	tr.EnableUndo()
	idx := make([]int32, 3)
	// Grow the chunks to full size and leave the current one with
	// less room than one cycle needs.
	var prefix []event.Event
	for len(tr.arena.base) < maxChunkInts || len(tr.arena.chunk) >= 1000 {
		prefix = append(prefix, writeRun(idx, 2)...)
		tr.ApplyFast(prefix[len(prefix)-2])
		tr.ApplyFast(prefix[len(prefix)-1])
	}
	mark := tr.UndoMark()
	evs := writeRun(idx, 200) // 1,800 ints: crosses into a new chunk
	cycle := func() {
		for _, e := range evs {
			tr.ApplyFast(e)
		}
		tr.UndoTo(mark)
	}
	before := &tr.arena.base[0]
	cycle()
	if &tr.arena.base[0] == before {
		t.Fatal("setup: the first cycle did not cross a chunk boundary")
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("apply/undo cycle across a chunk boundary allocates %.1f times, want 0", allocs)
	}
	sameState(t, "after cycles", tr, trackerAt(prefix, mark))
}

// TestChunkRewindRespectsArenaFloor: an Apply result taken after an
// undo rewound the arena into its newest chunk shares that chunk;
// applying, undoing and resetting the tracker afterwards must not
// reuse its storage, and the tracker itself must still equal a fresh
// replay.
func TestChunkRewindRespectsArenaFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans)
	tr.EnableUndo()
	rewinds := 0
	for iter := 0; iter < 300; iter++ {
		evs := randomEvents(rng, 300)
		for _, e := range evs {
			tr.ApplyFast(e)
		}
		mark := rng.Intn(len(evs))
		base, pos := &tr.arena.base[0], tr.undo[mark].arenaPos
		if pos < tr.arenaFloor || pos >= tr.arena.baseAt {
			tr.Reset()
			continue // this undo would not cross back below the newest chunk
		}
		tr.UndoTo(mark)
		if &tr.arena.chunk[0] != base || len(tr.arena.chunk) != len(tr.arena.base) {
			t.Fatalf("iter %d: an undo below the newest chunk did not continue from its start", iter)
		}
		rewinds++
		ref := NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans)
		for _, e := range evs[:mark] {
			ref.ApplyFast(e)
		}
		sameTracker(t, "after a chunk rewind", tr, ref)

		applied := tr.Apply(evs[mark%len(evs)])
		wantApplied := copyClocks([]vclock.VC{applied.HB, applied.Lazy})
		for _, e := range randomEvents(rng, 300) {
			tr.ApplyFast(e)
		}
		tr.UndoTo(rng.Intn(tr.UndoMark() + 1))
		for _, e := range randomEvents(rng, 300) {
			tr.ApplyFast(e)
		}
		tr.Reset()
		for _, e := range randomEvents(rng, 300) {
			tr.ApplyFast(e)
		}
		if got := copyClocks([]vclock.VC{applied.HB, applied.Lazy}); !reflect.DeepEqual(got, wantApplied) {
			t.Fatalf("iter %d: Apply's clocks changed after a chunk rewind: %v, want %v", iter, got, wantApplied)
		}
		tr.Reset()
	}
	if rewinds == 0 {
		t.Fatal("setup: no undo rewound the arena into its newest chunk")
	}
}
