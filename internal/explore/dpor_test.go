package explore

import (
	"testing"

	"repro/internal/event"
	"repro/internal/progdsl"
)

// TestLastDepFindsWriteForPendingRead: the race-reversal search locates
// the most recent conflicting, unordered event.
func TestLastDepFindsWriteForPendingRead(t *testing.T) {
	b := progdsl.New("lastdep-rw").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().Read(0, x)
	st := newDPORState(b.Build(), Options{})
	defer st.c.close()

	// Execute the write; thread 1's pending read must race with it.
	st.step(0)
	op, ok := st.c.m.Pending(1)
	if !ok || op.Kind != event.KindRead {
		t.Fatalf("pending of t1 = %v, %v", op, ok)
	}
	if got := st.lastDep(1, op); got != 0 {
		t.Fatalf("lastDep = %d, want 0 (the write)", got)
	}
	// After the read executes, nothing is pending for t1.
	st.step(1)
	if _, ok := st.c.m.Pending(1); ok {
		t.Fatal("t1 should be done")
	}
}

// TestLastDepOrderedEventIsSkipped: once the reader has observed the
// write (so the write happens-before the reader's next transition), it
// is no longer a reversal candidate.
func TestLastDepOrderedEventIsSkipped(t *testing.T) {
	b := progdsl.New("lastdep-ordered").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	t2 := b.Thread()
	t2.Read(0, x).Write(x, 0)
	st := newDPORState(b.Build(), Options{})
	defer st.c.close()

	st.step(0) // write by t0
	st.step(1) // read by t1 — orders t0's write before t1's future
	op, _ := st.c.m.Pending(1)
	if op.Kind != event.KindWrite {
		t.Fatalf("pending = %v", op)
	}
	// t1's pending write conflicts with t0's write AND t1's own read,
	// but both happen-before it now.
	if got := st.lastDep(1, op); got != -1 {
		t.Fatalf("lastDep = %d, want -1 (everything ordered)", got)
	}
}

// TestLastDepLockLock: a pending lock races with the most recent lock
// of the same mutex.
func TestLastDepLockLock(t *testing.T) {
	b := progdsl.New("lastdep-lock").AutoStart()
	m := b.Mutex("m")
	b.Thread().Lock(m).Unlock(m)
	b.Thread().Lock(m).Unlock(m)
	st := newDPORState(b.Build(), Options{})
	defer st.c.close()

	st.step(0) // t0 locks
	op, _ := st.c.m.Pending(1)
	if got := st.lastDep(1, op); got != 0 {
		t.Fatalf("lastDep = %d, want 0 (t0's lock)", got)
	}
	st.step(0) // t0 unlocks
	st.step(1) // t1 locks — ordered after t0's mutex ops now
	op, _ = st.c.m.Pending(1)
	if op.Kind != event.KindUnlock {
		t.Fatalf("pending = %v", op)
	}
	if got := st.lastDep(1, op); got != -1 {
		t.Fatalf("pending unlock should have no candidates, got %d", got)
	}
}

// TestLastDepWritePrefersLatestUnorderedRead: for a pending write, the
// most recent unordered read since the last write wins over the write.
func TestLastDepWritePrefersLatestUnorderedRead(t *testing.T) {
	b := progdsl.New("lastdep-wr").AutoStart()
	x := b.Var("x")
	b.Thread().Read(0, x)
	b.Thread().Read(0, x)
	b.Thread().WriteConst(x, 5)
	st := newDPORState(b.Build(), Options{})
	defer st.c.close()

	st.step(0) // read by t0 at index 0
	st.step(1) // read by t1 at index 1
	op, _ := st.c.m.Pending(2)
	if got := st.lastDep(2, op); got != 1 {
		t.Fatalf("lastDep = %d, want 1 (the later read)", got)
	}
}

// TestDPORResetTruncatesAccessLogs: backtracking must rewind the
// per-object indices along with the trace.
func TestDPORResetTruncatesAccessLogs(t *testing.T) {
	b := progdsl.New("logs").AutoStart()
	x := b.Var("x")
	m := b.Mutex("m")
	t1 := b.Thread()
	t1.Lock(m).WriteConst(x, 1).Unlock(m)
	t2 := b.Thread()
	t2.Lock(m).Read(0, x).Unlock(m)
	st := newDPORState(b.Build(), Options{})
	defer st.c.close()

	st.step(0)
	st.step(0)
	st.step(0)
	st.step(1)
	st.step(1)
	if len(st.muLocks[0]) != 2 || len(st.varWrites[0]) != 1 || len(st.varReads[0]) != 1 {
		t.Fatalf("logs: locks=%v writes=%v reads=%v", st.muLocks[0], st.varWrites[0], st.varReads[0])
	}
	st.resetTo(1)
	if len(st.muLocks[0]) != 1 || len(st.varWrites[0]) != 0 || len(st.varReads[0]) != 0 {
		t.Fatalf("logs after reset: locks=%v writes=%v reads=%v", st.muLocks[0], st.varWrites[0], st.varReads[0])
	}
}

// TestSleepSetsReduceOrEqual: on every zoo program, sleep sets explore
// no more terminals than plain DPOR while finding the same states.
func TestSleepSetsReduceOrEqual(t *testing.T) {
	for _, src := range soundnessZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			plain := exploreStates(t, NewDPOR(false), src)
			sleep := exploreStates(t, NewDPOR(true), src)
			if sleep.Terminals > plain.Terminals {
				t.Errorf("sleep sets increased terminals: %d > %d", sleep.Terminals, plain.Terminals)
			}
			if sleep.DistinctStates != plain.DistinctStates {
				t.Errorf("sleep sets changed the state count: %d vs %d",
					sleep.DistinctStates, plain.DistinctStates)
			}
		})
	}
}

// TestDPORDeadlockCompleteness: DPOR must reach the deadlock of the
// two-lock program even though the deadlocking interleaving requires
// reversing a lock-lock race.
func TestDPORDeadlockCompleteness(t *testing.T) {
	for _, eng := range []Engine{NewDPOR(false), NewDPOR(true), NewLazyDPOR()} {
		res := eng.Explore(curatedDeadlockable(), Options{MaxSteps: 2000})
		if res.Deadlocks == 0 {
			t.Errorf("%s missed the deadlock: %v", eng.Name(), res.String())
		}
	}
}

// TestSummarizeCS pins the critical-section scanner used by lazy DPOR.
func TestSummarizeCS(t *testing.T) {
	mkEv := func(tid event.ThreadID, idx int32, op event.Op) event.Event {
		return event.Event{Thread: tid, Index: idx, Op: op}
	}
	lock := event.Op{Kind: event.KindLock, Obj: 0}
	unlock := event.Op{Kind: event.KindUnlock, Obj: 0}
	rd := event.Op{Kind: event.KindRead, Obj: 3}
	wr := event.Op{Kind: event.KindWrite, Obj: 4, Val: 1}

	tr := []event.Event{
		mkEv(0, 0, lock),
		mkEv(1, 0, event.Op{Kind: event.KindWrite, Obj: 9}), // other thread, ignored
		mkEv(0, 1, rd),
		mkEv(0, 2, wr),
		mkEv(0, 3, unlock),
	}
	var cs csSummary
	cs.summarize(tr, 0)
	if !cs.clean {
		t.Fatal("section is clean")
	}
	if _, ok := cs.reads[3]; !ok {
		t.Error("read set missing v3")
	}
	if _, ok := cs.writes[4]; !ok {
		t.Error("write set missing v4")
	}
	if _, ok := cs.reads[9]; ok {
		t.Error("other thread's access leaked into the summary")
	}

	// Nested lock makes the section unclean.
	nested := []event.Event{
		mkEv(0, 0, lock),
		mkEv(0, 1, event.Op{Kind: event.KindLock, Obj: 1}),
	}
	if cs.summarize(nested, 0); cs.clean {
		t.Error("nested lock must be unclean")
	}

	// Truncated section (no unlock) is unclean.
	trunc := []event.Event{mkEv(0, 0, lock), mkEv(0, 1, rd)}
	if cs.summarize(trunc, 0); cs.clean {
		t.Error("unterminated section must be unclean")
	}
}

// TestDisjointPredicate pins the commutation check.
func TestDisjointPredicate(t *testing.T) {
	mk := func(reads []int32, writes []int32) csSummary {
		out := csSummary{reads: map[int32]struct{}{}, writes: map[int32]struct{}{}, clean: true}
		for _, v := range reads {
			out.reads[v] = struct{}{}
		}
		for _, v := range writes {
			out.writes[v] = struct{}{}
		}
		return out
	}
	if !disjoint(mk([]int32{1}, []int32{2}), mk([]int32{3}, []int32{4})) {
		t.Error("fully disjoint sections must commute")
	}
	if disjoint(mk(nil, []int32{1}), mk([]int32{1}, nil)) {
		t.Error("write-read overlap must not commute")
	}
	if disjoint(mk(nil, []int32{1}), mk(nil, []int32{1})) {
		t.Error("write-write overlap must not commute")
	}
	if !disjoint(mk([]int32{1}, nil), mk([]int32{1}, nil)) {
		t.Error("read-read overlap commutes")
	}
}

// TestLadderOK pins the lazy DPOR soundness condition.
func TestLadderOK(t *testing.T) {
	mkEv := func(tid event.ThreadID, op event.Op) event.Event {
		return event.Event{Thread: tid, Op: op}
	}
	lk := func(m int32) event.Op { return event.Op{Kind: event.KindLock, Obj: m} }
	ul := func(m int32) event.Op { return event.Op{Kind: event.KindUnlock, Obj: m} }
	wr := func(v int32) event.Op { return event.Op{Kind: event.KindWrite, Obj: v} }

	ladder := []event.Event{
		mkEv(0, lk(0)), mkEv(0, wr(1)), mkEv(0, ul(0)),
		mkEv(1, lk(0)), mkEv(1, wr(2)), mkEv(1, ul(0)),
	}
	if !ladderOK(ladder, 0, 0) {
		t.Error("pure lock ladder must qualify")
	}
	// A tail event after a block disqualifies.
	tail := append(append([]event.Event(nil), ladder...), mkEv(0, wr(3)))
	if ladderOK(tail, 0, 0) {
		t.Error("tail event after the block must disqualify")
	}
	// A different mutex in the suffix disqualifies.
	other := []event.Event{
		mkEv(0, lk(0)), mkEv(0, ul(0)),
		mkEv(1, lk(1)), mkEv(1, ul(1)),
	}
	if ladderOK(other, 0, 0) {
		t.Error("a block on a different mutex must disqualify")
	}
	// An unterminated block disqualifies.
	openCS := []event.Event{mkEv(0, lk(0)), mkEv(0, wr(1))}
	if ladderOK(openCS, 0, 0) {
		t.Error("an open critical section must disqualify")
	}
	// A bare access before a thread's lock disqualifies.
	bare := []event.Event{
		mkEv(0, lk(0)), mkEv(0, ul(0)),
		mkEv(1, wr(2)), mkEv(1, lk(0)), mkEv(1, ul(0)),
	}
	if ladderOK(bare, 0, 0) {
		t.Error("a bare access before the lock must disqualify")
	}
}

// TestLazyDPORHeadlineReduction: on the paper's motivating coarse
// workload the lazy DPOR explores a single schedule where classic DPOR
// needs n! — while the state-agreement suite (engines_test.go)
// guarantees it loses nothing.
func TestLazyDPORHeadlineReduction(t *testing.T) {
	b := progdsl.New("coarse4").AutoStart()
	g := b.Mutex("g")
	own := b.VarArray("own", 4)
	for i := 0; i < 4; i++ {
		th := b.Thread()
		th.Lock(g)
		th.Read(0, own.At(i))
		th.AddConst(0, 0, 1)
		th.Write(own.At(i), 0)
		th.Unlock(g)
	}
	p := b.Build()
	classic := NewDPOR(false).Explore(p, Options{})
	lazy := NewLazyDPOR().Explore(p, Options{})
	if classic.Schedules != 24 {
		t.Errorf("classic DPOR explored %d schedules, want 24", classic.Schedules)
	}
	if lazy.Schedules != 1 {
		t.Errorf("lazy DPOR explored %d schedules, want 1", lazy.Schedules)
	}
	if lazy.DistinctStates != classic.DistinctStates {
		t.Errorf("lazy DPOR state count diverged: %d vs %d", lazy.DistinctStates, classic.DistinctStates)
	}
}

// TestLazyDPORConservativeOnConflicts: when critical sections share
// data, lazy DPOR must keep the reversals.
func TestLazyDPORConservativeOnConflicts(t *testing.T) {
	res := NewLazyDPOR().Explore(curatedSharedCounter(), Options{RecordStates: true})
	want := NewDFS().Explore(curatedSharedCounter(), Options{RecordStates: true})
	if res.DistinctStates != want.DistinctStates {
		t.Errorf("lazy DPOR found %d states, dfs %d", res.DistinctStates, want.DistinctStates)
	}
}
