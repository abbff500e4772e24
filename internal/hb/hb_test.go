package hb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func ev(t event.ThreadID, idx int32, op event.Op) event.Event {
	return event.Event{Thread: t, Index: idx, Op: op}
}

func rd(v int32) event.Op          { return event.Op{Kind: event.KindRead, Obj: v} }
func wr(v int32, x int64) event.Op { return event.Op{Kind: event.KindWrite, Obj: v, Val: x} }
func lk(m int32) event.Op          { return event.Op{Kind: event.KindLock, Obj: m} }
func ul(m int32) event.Op          { return event.Op{Kind: event.KindUnlock, Obj: m} }

// TestPaperFigure1Clocks replays the exact schedule of the paper's
// Figure 1 and checks the single inter-thread HBR edge (T1's unlock →
// T2's lock, collapsed into the clocks) and its absence from the lazy
// relation.
//
//	T1: lock(m) read(x) unlock(m) write(y)
//	T2: write(z) lock(m) read(x) unlock(m)
//
// Schedule: all of T1, then all of T2.
func TestPaperFigure1Clocks(t *testing.T) {
	tr := NewTracker(2, 3, 1) // vars: x=0,y=1,z=2; mutex m=0
	c1 := tr.Apply(ev(0, 0, lk(0)))
	c2 := tr.Apply(ev(0, 1, rd(0)))
	c3 := tr.Apply(ev(0, 2, ul(0)))
	c4 := tr.Apply(ev(0, 3, wr(1, 1)))
	c5 := tr.Apply(ev(1, 0, wr(2, 1)))
	c6 := tr.Apply(ev(1, 1, lk(0)))
	c7 := tr.Apply(ev(1, 2, rd(0)))
	c8 := tr.Apply(ev(1, 3, ul(0)))

	// T1's clocks advance in program order with no T2 component.
	for i, c := range []Clocks{c1, c2, c3, c4} {
		if got := c.HB.Get(0); got != int32(i+1) {
			t.Errorf("T1 event %d: HB[T1] = %d, want %d", i, got, i+1)
		}
		if c.HB.Get(1) != 0 {
			t.Errorf("T1 event %d: HB[T2] = %d, want 0", i, c.HB.Get(1))
		}
	}
	// T2's write(z) is fully concurrent with T1.
	if c5.HB.Get(0) != 0 || c5.HB.Get(1) != 1 {
		t.Errorf("write(z): HB = %v, want [0 1]", c5.HB)
	}
	// T2's lock(m) picks up the mutex edge from T1's unlock: it now
	// knows T1's first three events (but not the write to y).
	if c6.HB.Get(0) != 3 || c6.HB.Get(1) != 2 {
		t.Errorf("T2 lock(m): HB = %v, want [3 2]", c6.HB)
	}
	// ... and the knowledge persists transitively.
	if c7.HB.Get(0) != 3 || c8.HB.Get(0) != 3 {
		t.Errorf("T2 tail: HB clocks %v %v should carry T1=3", c7.HB, c8.HB)
	}
	// The lazy relation has no mutex edges: T2 never learns of T1.
	for i, c := range []Clocks{c5, c6, c7, c8} {
		if c.Lazy.Get(0) != 0 {
			t.Errorf("T2 event %d: Lazy[T1] = %d, want 0 (no mutex edges)", i, c.Lazy.Get(0))
		}
		if got := c.Lazy.Get(1); got != int32(i+1) {
			t.Errorf("T2 event %d: Lazy[T2] = %d, want %d", i, got, i+1)
		}
	}
}

// TestPaperFigure1Fingerprints checks Theorem-level equality on the two
// feasible lock orders of Figure 1: different regular HBRs, same lazy
// HBR.
func TestPaperFigure1Fingerprints(t *testing.T) {
	run := func(t2First bool) (Fingerprint, Fingerprint) {
		tr := NewTracker(2, 3, 1)
		t1 := []event.Event{ev(0, 0, lk(0)), ev(0, 1, rd(0)), ev(0, 2, ul(0)), ev(0, 3, wr(1, 1))}
		t2 := []event.Event{ev(1, 0, wr(2, 1)), ev(1, 1, lk(0)), ev(1, 2, rd(0)), ev(1, 3, ul(0))}
		var order []event.Event
		if t2First {
			order = append(append(order, t2...), t1...)
		} else {
			order = append(append(order, t1...), t2...)
		}
		for _, e := range order {
			tr.Apply(e)
		}
		return tr.HBFingerprint(), tr.LazyFingerprint()
	}
	hb1, lazy1 := run(false)
	hb2, lazy2 := run(true)
	if hb1 == hb2 {
		t.Error("the two lock orders must have different regular HBRs")
	}
	if lazy1 != lazy2 {
		t.Error("the two lock orders must have the same lazy HBR")
	}
}

// TestVarEdges pins the read/write edge rules: write→read,
// write→write, read→write, but never read→read.
func TestVarEdges(t *testing.T) {
	tr := NewTracker(3, 1, 0)
	w := tr.Apply(ev(0, 0, wr(0, 1)))
	r1 := tr.Apply(ev(1, 0, rd(0)))
	r2 := tr.Apply(ev(2, 0, rd(0)))
	if r1.HB.Get(0) != 1 || r2.HB.Get(0) != 1 {
		t.Error("reads must order after the last write")
	}
	if r2.HB.Get(1) != 0 {
		t.Error("read-read must not create an edge")
	}
	_ = w
	// A later write orders after both reads.
	w2 := tr.Apply(ev(0, 1, wr(0, 2)))
	if w2.HB.Get(1) != 1 || w2.HB.Get(2) != 1 {
		t.Errorf("write must order after all reads since the last write: %v", w2.HB)
	}
}

// TestLazyKeepsVarAndSpawnJoinEdges distinguishes exactly which edges
// the lazy relation drops: mutex edges only.
func TestLazyKeepsVarAndSpawnJoinEdges(t *testing.T) {
	tr := NewTracker(2, 1, 1)
	tr.Apply(ev(0, 0, wr(0, 1)))
	r := tr.Apply(ev(1, 0, rd(0)))
	if r.Lazy.Get(0) != 1 {
		t.Error("lazy relation must keep variable edges")
	}

	tr2 := NewTracker(2, 1, 1)
	tr2.Apply(ev(0, 0, event.Op{Kind: event.KindSpawn, Obj: 1}))
	first := tr2.Apply(ev(1, 0, wr(0, 5)))
	if first.Lazy.Get(0) != 1 {
		t.Error("lazy relation must keep spawn edges")
	}
	tr2.Apply(ev(1, 1, wr(0, 6)))
	j := tr2.Apply(ev(0, 1, event.Op{Kind: event.KindJoin, Obj: 1}))
	if j.Lazy.Get(1) != 2 {
		t.Error("lazy relation must keep join edges")
	}
	if j.HB.Get(1) != 2 {
		t.Error("regular relation must keep join edges")
	}
}

// TestRaceDetection exercises the sync-only relation: unsynchronised
// conflicting accesses race; lock-ordered and join-ordered ones do not.
func TestRaceDetection(t *testing.T) {
	// Unsynchronised write-write: race.
	tr := NewTracker(2, 1, 1)
	tr.Apply(ev(0, 0, wr(0, 1)))
	tr.Apply(ev(1, 0, wr(0, 2)))
	if len(tr.Races()) != 1 {
		t.Fatalf("races = %v, want exactly one", tr.Races())
	}
	if tr.Races()[0].Var != 0 {
		t.Errorf("race reported on v%d", tr.Races()[0].Var)
	}

	// Lock-ordered write-write: no race.
	tr = NewTracker(2, 1, 1)
	tr.Apply(ev(0, 0, lk(0)))
	tr.Apply(ev(0, 1, wr(0, 1)))
	tr.Apply(ev(0, 2, ul(0)))
	tr.Apply(ev(1, 0, lk(0)))
	tr.Apply(ev(1, 1, wr(0, 2)))
	tr.Apply(ev(1, 2, ul(0)))
	if len(tr.Races()) != 0 {
		t.Fatalf("lock-ordered accesses raced: %v", tr.Races())
	}

	// Read-write race.
	tr = NewTracker(2, 1, 0)
	tr.Apply(ev(0, 0, rd(0)))
	tr.Apply(ev(1, 0, wr(0, 1)))
	if len(tr.Races()) != 1 {
		t.Fatalf("read-write races = %v, want one", tr.Races())
	}

	// Write-read race.
	tr = NewTracker(2, 1, 0)
	tr.Apply(ev(0, 0, wr(0, 1)))
	tr.Apply(ev(1, 0, rd(0)))
	if len(tr.Races()) != 1 {
		t.Fatalf("write-read races = %v, want one", tr.Races())
	}

	// Read-read: never a race.
	tr = NewTracker(2, 1, 0)
	tr.Apply(ev(0, 0, rd(0)))
	tr.Apply(ev(1, 0, rd(0)))
	if len(tr.Races()) != 0 {
		t.Fatalf("read-read raced: %v", tr.Races())
	}

	// Spawn-ordered accesses: no race.
	tr = NewTracker(2, 1, 0)
	tr.Apply(ev(0, 0, wr(0, 1)))
	tr.Apply(ev(0, 1, event.Op{Kind: event.KindSpawn, Obj: 1}))
	tr.Apply(ev(1, 0, wr(0, 2)))
	if len(tr.Races()) != 0 {
		t.Fatalf("spawn-ordered accesses raced: %v", tr.Races())
	}
}

// TestHappensBeforeNext pins the DPOR ordering test.
func TestHappensBeforeNext(t *testing.T) {
	tr := NewTracker(2, 1, 1)
	e0 := ev(0, 0, wr(0, 1))
	tr.Apply(e0)
	// Thread 1 has seen nothing of thread 0.
	if tr.HappensBeforeNext(e0, 1) {
		t.Error("independent threads must not be ordered")
	}
	// Same thread: always ordered.
	if !tr.HappensBeforeNext(e0, 0) {
		t.Error("own events always happen-before the thread's next transition")
	}
	// After thread 1 reads the write, the write is ordered before
	// whatever thread 1 does next.
	tr.Apply(ev(1, 0, rd(0)))
	if !tr.HappensBeforeNext(e0, 1) {
		t.Error("write must happen-before the reader's next transition")
	}
}

// TestFingerprintLinearizationInvariance: permuting commuting
// (independent, cross-thread) adjacent events never changes either
// fingerprint, while flipping a conflicting pair changes both.
func TestFingerprintLinearizationInvariance(t *testing.T) {
	// Two threads touch disjoint vars: any interleaving has the same
	// HBR and the same lazy HBR.
	perm1 := []event.Event{ev(0, 0, wr(0, 1)), ev(1, 0, wr(1, 2)), ev(0, 1, rd(0)), ev(1, 1, rd(1))}
	perm2 := []event.Event{ev(1, 0, wr(1, 2)), ev(1, 1, rd(1)), ev(0, 0, wr(0, 1)), ev(0, 1, rd(0))}
	fp := func(events []event.Event) (Fingerprint, Fingerprint) {
		tr := NewTracker(2, 2, 0)
		for _, e := range events {
			tr.Apply(e)
		}
		return tr.HBFingerprint(), tr.LazyFingerprint()
	}
	h1, l1 := fp(perm1)
	h2, l2 := fp(perm2)
	if h1 != h2 || l1 != l2 {
		t.Error("independent permutations must have identical fingerprints")
	}

	// Conflicting writes in both orders: different everything.
	a := []event.Event{ev(0, 0, wr(0, 1)), ev(1, 0, wr(0, 2))}
	b := []event.Event{ev(1, 0, wr(0, 2)), ev(0, 0, wr(0, 1))}
	ha, la := fp2(a)
	hbf, lb := fp2(b)
	if ha == hbf {
		t.Error("conflicting orders must differ in the regular HBR")
	}
	if la == lb {
		t.Error("conflicting orders must differ in the lazy HBR (variable edges kept)")
	}
}

func fp2(events []event.Event) (Fingerprint, Fingerprint) {
	tr := NewTracker(2, 1, 0)
	for _, e := range events {
		tr.Apply(e)
	}
	return tr.HBFingerprint(), tr.LazyFingerprint()
}

// TestFingerprintPrefixes: the running fingerprint after k events
// depends only on the partial order of the prefix.
func TestFingerprintPrefixes(t *testing.T) {
	tr := NewTracker(2, 2, 0)
	var fps []Fingerprint
	for _, e := range []event.Event{ev(0, 0, wr(0, 1)), ev(1, 0, wr(1, 1)), ev(0, 1, rd(0))} {
		tr.Apply(e)
		fps = append(fps, tr.HBFingerprint())
	}
	for i := 1; i < len(fps); i++ {
		if fps[i] == fps[i-1] {
			t.Error("each event must change the running fingerprint")
		}
	}
	if fps[0].IsZero() {
		t.Error("fingerprint after one event must be non-zero")
	}
	var zero Fingerprint
	if !zero.IsZero() {
		t.Error("zero fingerprint must report IsZero")
	}
}

// TestApplyFastMatchesApply: the engines' no-result path must leave the
// tracker in exactly the state the recording path produces.
func TestApplyFastMatchesApply(t *testing.T) {
	events := []event.Event{
		ev(0, 0, event.Op{Kind: event.KindSpawn, Obj: 1}),
		ev(0, 1, lk(0)),
		ev(0, 2, wr(0, 1)),
		ev(0, 3, ul(0)),
		ev(1, 0, rd(0)),
		ev(1, 1, wr(1, 2)),
		ev(0, 4, event.Op{Kind: event.KindJoin, Obj: 1}),
		ev(0, 5, rd(1)),
	}
	a := NewTracker(2, 2, 1)
	b := NewTracker(2, 2, 1)
	for _, e := range events {
		a.Apply(e)
		b.ApplyFast(e)
	}
	if a.HBFingerprint() != b.HBFingerprint() || a.LazyFingerprint() != b.LazyFingerprint() {
		t.Fatal("ApplyFast diverged from Apply on fingerprints")
	}
	if a.Events() != b.Events() || len(a.Races()) != len(b.Races()) {
		t.Fatal("ApplyFast diverged from Apply on counters")
	}
	for tid := 0; tid < 2; tid++ {
		p := event.ThreadID(tid)
		if !a.ThreadClock(p).Equal(b.ThreadClock(p)) || !a.LazyThreadClock(p).Equal(b.LazyThreadClock(p)) {
			t.Fatalf("thread %d clocks diverged", tid)
		}
	}
}

// TestThreadClockAccessors checks the clock views engines use.
func TestThreadClockAccessors(t *testing.T) {
	tr := NewTracker(2, 1, 1)
	tr.Apply(ev(0, 0, wr(0, 1)))
	tr.Apply(ev(1, 0, rd(0)))
	if tr.ThreadClock(1).Get(0) != 1 {
		t.Error("thread 1's regular clock must include the writer")
	}
	if tr.LazyThreadClock(1).Get(0) != 1 {
		t.Error("lazy clock keeps variable edges")
	}
	tr2 := NewTracker(2, 1, 1)
	tr2.Apply(ev(0, 0, lk(0)))
	tr2.Apply(ev(0, 1, ul(0)))
	tr2.Apply(ev(1, 0, lk(0)))
	if tr2.ThreadClock(1).Get(0) != 2 {
		t.Error("regular clock must include mutex edges")
	}
	if tr2.LazyThreadClock(1).Get(0) != 0 {
		t.Error("lazy clock must not include mutex edges")
	}
}

// TestQuickFingerprintCommutes: adding a fixed multiset of event hashes
// in any order yields the same fingerprint.
func TestQuickFingerprintCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hashes := make([]uint64, 2+r.Intn(6))
		for i := range hashes {
			hashes[i] = r.Uint64()
		}
		var a Fingerprint
		for _, h := range hashes {
			a.Add(h)
		}
		var b Fingerprint
		for _, i := range r.Perm(len(hashes)) {
			b.Add(hashes[i])
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMutexTotalOrder: every mutex op joins the previous one, in the
// regular relation, regardless of which thread performed it.
func TestMutexTotalOrder(t *testing.T) {
	tr := NewTracker(3, 0, 1)
	tr.Apply(ev(0, 0, lk(0)))
	tr.Apply(ev(0, 1, ul(0)))
	c := tr.Apply(ev(1, 0, lk(0)))
	if c.HB.Get(0) != 2 {
		t.Error("second lock must order after first unlock")
	}
	tr.Apply(ev(1, 1, ul(0)))
	c = tr.Apply(ev(2, 0, lk(0)))
	if c.HB.Get(0) != 2 || c.HB.Get(1) != 2 {
		t.Errorf("third lock must order after both critical sections: %v", c.HB)
	}
}

// TestEventHashValueSensitivity: written values are part of the node
// label; read results are not (they are determined by the order).
func TestEventHashValueSensitivity(t *testing.T) {
	a := labelHash(ev(0, 0, wr(0, 1)))
	b := labelHash(ev(0, 0, wr(0, 2)))
	if a == b {
		t.Error("different written values must hash differently")
	}
	r1 := event.Event{Thread: 0, Index: 0, Op: rd(0), Seen: 1}
	r2 := event.Event{Thread: 0, Index: 0, Op: rd(0), Seen: 2}
	if labelHash(r1) != labelHash(r2) {
		t.Error("read results are not node labels and must not affect the hash")
	}
}

// TestRacesWithNext pins the independence query partial-order sampling
// consults: a pending operation races with an executed event iff it is
// on another thread, dependent, co-enablable and not already ordered
// after the event.
func TestRacesWithNext(t *testing.T) {
	tr := NewTracker(3, 2, 1) // vars x=0,y=1; mutex m=0
	w := ev(0, 0, wr(0, 1))
	tr.Apply(w)

	// Same thread never races with its own event.
	if tr.RacesWithNext(w, 0, wr(0, 2)) {
		t.Error("a thread cannot race with its own executed event")
	}
	// A concurrent conflicting access races.
	if !tr.RacesWithNext(w, 1, rd(0)) {
		t.Error("concurrent read of the written var must race")
	}
	if !tr.RacesWithNext(w, 1, wr(0, 7)) {
		t.Error("concurrent write-write conflict must race")
	}
	// Independent operations do not: a different variable, or a mutex.
	if tr.RacesWithNext(w, 1, wr(1, 1)) {
		t.Error("disjoint variables are independent")
	}
	if tr.RacesWithNext(w, 1, lk(0)) {
		t.Error("a mutex op is independent of a variable write")
	}
	// Once the pending thread is HB-ordered after the event (it read
	// the write), the pair stops racing.
	tr.Apply(ev(2, 0, rd(0)))
	if tr.RacesWithNext(w, 2, wr(0, 9)) {
		t.Error("an HB-ordered pending op must not count as racing")
	}
	// An unordered third thread still races.
	if !tr.RacesWithNext(w, 1, rd(0)) {
		t.Error("the unordered thread must still race")
	}
}
