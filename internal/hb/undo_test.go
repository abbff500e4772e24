package hb

import (
	"math/rand"
	"testing"

	"repro/internal/event"
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

// TestCloneToMatchesReference: CloneTo ships an interior state without
// disturbing the live tracker — the work-steal seed export path.
func TestCloneToMatchesReference(t *testing.T) {
	tr := NewTracker(3, 2, 1)
	tr.EnableUndo()
	for _, e := range undoSeq {
		tr.ApplyFast(e)
	}
	frontier := trackerAt(undoSeq, len(undoSeq))
	for k := 0; k <= len(undoSeq); k++ {
		cp := tr.CloneTo(k)
		sameState(t, "CloneTo", cp, trackerAt(undoSeq, k))
		sameState(t, "receiver after CloneTo", tr, frontier)
	}
}

// TestUndoCloneSafety: a clone taken mid-exploration must survive the
// parent rewinding past the clone point and re-applying different
// events — the arena floor prevents the parent from reusing storage
// the clone shares.
func TestUndoCloneSafety(t *testing.T) {
	tr := NewTracker(3, 2, 1)
	tr.EnableUndo()
	for _, e := range undoSeq[:8] {
		tr.ApplyFast(e)
	}
	cp := tr.Clone()
	want := trackerAt(undoSeq, 8)

	// Rewind the parent below the clone point and grow a different
	// branch, forcing heavy arena churn.
	tr.UndoTo(3)
	for i := 0; i < 50; i++ {
		tr.ApplyFast(ev(1, int32(1+i), wr(0, int64(i))))
	}
	sameState(t, "clone after parent rewind+regrow", cp, want)

	// And the regrown parent itself still rewinds exactly.
	tr.UndoTo(3)
	sameState(t, "parent after regrow rewind", tr, trackerAt(undoSeq, 3))
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
		if rng.Intn(8) == 0 {
			_ = tr.CloneTo(rng.Intn(tr.UndoMark() + 1))
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
