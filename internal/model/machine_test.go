package model

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
)

// scriptSource is a minimal hand-rolled Source for machine tests: each
// thread is a fixed list of operations.
type scriptSource struct {
	name    string
	vars    int
	mutexes int
	threads [][]event.Op
	initial []event.ThreadID
	init    map[int32]int64
}

func (s *scriptSource) Name() string    { return s.name }
func (s *scriptSource) NumThreads() int { return len(s.threads) }
func (s *scriptSource) NumVars() int    { return s.vars }
func (s *scriptSource) NumMutexes() int { return s.mutexes }
func (s *scriptSource) InitiallyRunning() []event.ThreadID {
	return s.initial
}
func (s *scriptSource) InitStore(store []int64) {
	for v, x := range s.init {
		store[v] = x
	}
}
func (s *scriptSource) Start(t event.ThreadID) Coroutine {
	return &scriptCoroutine{ops: s.threads[t]}
}

type scriptCoroutine struct {
	ops []event.Op
	pc  int
}

func (c *scriptCoroutine) Peek() (event.Op, bool) {
	if c.pc >= len(c.ops) {
		return event.Op{}, false
	}
	return c.ops[c.pc], true
}

func (c *scriptCoroutine) Resume(int64) { c.pc++ }

func (c *scriptCoroutine) Snapshot() Coroutine {
	cp := *c
	return &cp
}

func rd(v int32) event.Op          { return event.Op{Kind: event.KindRead, Obj: v} }
func wr(v int32, x int64) event.Op { return event.Op{Kind: event.KindWrite, Obj: v, Val: x} }
func lk(m int32) event.Op          { return event.Op{Kind: event.KindLock, Obj: m} }
func ul(m int32) event.Op          { return event.Op{Kind: event.KindUnlock, Obj: m} }
func sp(t event.ThreadID) event.Op { return event.Op{Kind: event.KindSpawn, Obj: int32(t)} }
func jn(t event.ThreadID) event.Op { return event.Op{Kind: event.KindJoin, Obj: int32(t)} }
func as(ok int64) event.Op         { return event.Op{Kind: event.KindAssert, Val: ok} }

func allThreads(n int) []event.ThreadID {
	out := make([]event.ThreadID, n)
	for i := range out {
		out[i] = event.ThreadID(i)
	}
	return out
}

func TestReadWriteSemantics(t *testing.T) {
	src := &scriptSource{
		name: "rw", vars: 2,
		threads: [][]event.Op{{wr(0, 5), rd(0), rd(1)}},
		initial: allThreads(1),
		init:    map[int32]int64{1: 9},
	}
	m := NewMachine(src)
	ev := m.Step(0)
	if ev.Kind != event.KindWrite || m.Load(0) != 5 {
		t.Fatalf("write failed: %v store=%d", ev, m.Load(0))
	}
	ev = m.Step(0)
	if ev.Seen != 5 {
		t.Fatalf("read saw %d, want 5", ev.Seen)
	}
	ev = m.Step(0)
	if ev.Seen != 9 {
		t.Fatalf("initialised variable read %d, want 9", ev.Seen)
	}
	if !m.Terminated() || m.Deadlocked() {
		t.Error("machine must terminate cleanly")
	}
}

func TestLockBlocksAndUnlockFrees(t *testing.T) {
	src := &scriptSource{
		name: "lock", mutexes: 1,
		threads: [][]event.Op{
			{lk(0), ul(0)},
			{lk(0), ul(0)},
		},
		initial: allThreads(2),
	}
	m := NewMachine(src)
	if !m.Enabled(0) || !m.Enabled(1) {
		t.Fatal("both locks enabled on a free mutex")
	}
	m.Step(0)
	if m.Owner(0) != 0 {
		t.Fatalf("owner = %d, want 0", m.Owner(0))
	}
	if m.Enabled(1) {
		t.Fatal("lock of a held mutex must be disabled")
	}
	if !m.Enabled(0) {
		t.Fatal("unlock by owner must be enabled")
	}
	m.Step(0)
	if m.Owner(0) != NoOwner {
		t.Fatal("unlock must free the mutex")
	}
	if !m.Enabled(1) {
		t.Fatal("blocked lock must re-enable after unlock")
	}
	m.Step(1)
	m.Step(1)
	if !m.Terminated() {
		t.Fatal("machine should be terminal")
	}
}

func TestUnlockByNonOwnerIsFailure(t *testing.T) {
	src := &scriptSource{
		name: "badunlock", mutexes: 1,
		threads: [][]event.Op{{ul(0)}},
		initial: allThreads(1),
	}
	m := NewMachine(src)
	m.Step(0)
	fs := m.Failures()
	if len(fs) != 1 || fs[0].Kind != FailLockMisuse {
		t.Fatalf("failures = %v, want one lock-misuse", fs)
	}
	if !strings.Contains(fs[0].String(), "unlock") {
		t.Errorf("failure message %q should mention unlock", fs[0].String())
	}
}

func TestSpawnJoinLifecycle(t *testing.T) {
	src := &scriptSource{
		name: "spawnjoin", vars: 1,
		threads: [][]event.Op{
			{sp(1), jn(1), rd(0)},
			{wr(0, 7)},
		},
		// Only thread 0 runs initially (default).
	}
	m := NewMachine(src)
	if m.Status(1) != NotStarted {
		t.Fatal("thread 1 must await spawn")
	}
	if !m.Enabled(0) {
		t.Fatal("spawn must be enabled")
	}
	m.Step(0) // spawn
	if m.Status(1) != Running {
		t.Fatal("spawn must start the child")
	}
	if m.Enabled(0) {
		t.Fatal("join of a live thread must block")
	}
	m.Step(1) // child writes and terminates
	if m.Status(1) != Done {
		t.Fatal("child must be done after its last op")
	}
	if !m.Enabled(0) {
		t.Fatal("join must unblock once the child is done")
	}
	m.Step(0) // join
	ev := m.Step(0)
	if ev.Seen != 7 {
		t.Fatalf("read after join saw %d, want 7", ev.Seen)
	}
}

func TestSpawnTwiceIsFailure(t *testing.T) {
	src := &scriptSource{
		name: "respawn",
		threads: [][]event.Op{
			{sp(1), sp(1)},
			{},
		},
	}
	m := NewMachine(src)
	m.Step(0)
	m.Step(0)
	fs := m.Failures()
	if len(fs) != 1 || fs[0].Kind != FailSpawnMisuse {
		t.Fatalf("failures = %v, want one spawn-misuse", fs)
	}
}

func TestAssertFailureRecorded(t *testing.T) {
	src := &scriptSource{
		name:    "assert",
		threads: [][]event.Op{{as(1), as(0)}},
		initial: allThreads(1),
	}
	m := NewMachine(src)
	m.Step(0)
	if len(m.Failures()) != 0 {
		t.Fatal("passing assert must not record a failure")
	}
	m.Step(0)
	fs := m.Failures()
	if len(fs) != 1 || fs[0].Kind != FailAssert {
		t.Fatalf("failures = %v, want one assert", fs)
	}
}

func TestDeadlockDetection(t *testing.T) {
	src := &scriptSource{
		name: "deadlock", mutexes: 2,
		threads: [][]event.Op{
			{lk(0), lk(1), ul(1), ul(0)},
			{lk(1), lk(0), ul(0), ul(1)},
		},
		initial: allThreads(2),
	}
	m := NewMachine(src)
	m.Step(0) // t0 locks m0
	m.Step(1) // t1 locks m1
	if m.Enabled(0) || m.Enabled(1) {
		t.Fatal("both threads must now be blocked")
	}
	if !m.Deadlocked() {
		t.Fatal("machine must report deadlock")
	}
	if m.Terminated() {
		t.Fatal("deadlocked machine is not terminated")
	}
}

func TestStepPanicsOnDisabledThread(t *testing.T) {
	src := &scriptSource{
		name: "panic", mutexes: 1,
		threads: [][]event.Op{
			{lk(0), ul(0)},
			{lk(0), ul(0)},
		},
		initial: allThreads(2),
	}
	m := NewMachine(src)
	m.Step(0)
	defer func() {
		if recover() == nil {
			t.Error("Step of a blocked thread must panic")
		}
	}()
	m.Step(1)
}

func TestEnabledThreadsOrdering(t *testing.T) {
	src := &scriptSource{
		name: "enabled", vars: 1,
		threads: [][]event.Op{
			{rd(0)}, {rd(0)}, {rd(0)},
		},
		initial: allThreads(3),
	}
	m := NewMachine(src)
	en := m.EnabledThreads(nil)
	if len(en) != 3 || en[0] != 0 || en[1] != 1 || en[2] != 2 {
		t.Fatalf("enabled = %v, want [0 1 2]", en)
	}
	m.Step(1)
	en = m.EnabledThreads(en)
	if len(en) != 2 || en[0] != 0 || en[1] != 2 {
		t.Fatalf("enabled = %v, want [0 2]", en)
	}
}

func TestSnapshotIndependence(t *testing.T) {
	src := &scriptSource{
		name: "snap", vars: 1, mutexes: 1,
		threads: [][]event.Op{
			{lk(0), wr(0, 1), ul(0)},
			{lk(0), wr(0, 2), ul(0)},
		},
		initial: allThreads(2),
	}
	m := NewMachine(src)
	m.Step(0) // t0 locks
	snap, ok := m.Snapshot()
	if !ok {
		t.Fatal("script coroutines are snapshotable")
	}
	// Diverge the original.
	m.Step(0)
	m.Step(0)
	if snap.Load(0) != 0 || snap.Owner(0) != 0 {
		t.Fatal("snapshot must be frozen at the snapshot point")
	}
	// The snapshot can take the other branch.
	snap.Step(0)
	snap.Step(0)
	snap.Step(1)
	snap.Step(1)
	snap.Step(1)
	if snap.Load(0) != 2 {
		t.Fatalf("snapshot run ended with store=%d, want 2", snap.Load(0))
	}
	if m.Load(0) != 1 {
		t.Fatalf("original run disturbed: store=%d, want 1", m.Load(0))
	}
}

// TestUndoRewindsEveryEffect drives a program exercising every effect
// class a Step can have — store writes, lock/unlock ownership, spawn,
// join, failures — and checks that UndoTo restores the exact machine
// state (per StateKey, StateSig, pending ops and counters) at every
// intermediate depth.
func TestUndoRewindsEveryEffect(t *testing.T) {
	src := &scriptSource{
		name: "undo", vars: 2, mutexes: 1,
		threads: [][]event.Op{
			{sp(1), wr(0, 7), lk(0), ul(0), jn(1), as(0)},
			{rd(0), wr(1, 3), ul(0)}, // final unlock is a lock-misuse failure
		},
		initial: []event.ThreadID{0},
	}
	m := NewMachine(src)
	if !m.EnableUndo() {
		t.Fatal("script coroutines are snapshotable; undo must enable")
	}

	type probe struct {
		key      string
		sig      StateSig
		executed int
	}
	var probes []probe
	snapshot := func() probe {
		return probe{key: m.StateKey(), sig: m.StateSig(), executed: m.Executed()}
	}
	probes = append(probes, snapshot())
	var choices []event.ThreadID
	for {
		en := m.EnabledThreads(nil)
		if len(en) == 0 {
			break
		}
		// Deterministic round-robin over enabled threads.
		tid := en[len(choices)%len(en)]
		m.Step(tid)
		choices = append(choices, tid)
		probes = append(probes, snapshot())
	}
	if len(m.Failures()) == 0 {
		t.Fatal("the script must end with failures (assert + lock misuse)")
	}
	final := snapshot()

	// Rewind to every depth, verify, then re-execute the identical
	// suffix and verify the terminal state is reproduced.
	for d := len(choices); d >= 0; d-- {
		m.UndoTo(d)
		if got := snapshot(); got != probes[d] {
			t.Fatalf("undo to depth %d: state %+v, want %+v", d, got, probes[d])
		}
	}
	for i, tid := range choices {
		m.Step(tid)
		if got := snapshot(); got != probes[i+1] {
			t.Fatalf("redo step %d: state %+v, want %+v", i, got, probes[i+1])
		}
	}
	if got := snapshot(); got != final {
		t.Fatalf("redo terminal state %+v, want %+v", got, final)
	}
}

// TestUndoMatchesSnapshot cross-validates the undo log against deep
// snapshots on random well-formed programs: after random interleaved
// runs of step/undo, the machine must agree with a snapshot taken at
// the rewind target.
func TestUndoMatchesSnapshot(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := genScript(r)
		m := NewMachine(src)
		if !m.EnableUndo() {
			t.Fatal("script coroutines must support undo")
		}
		type point struct {
			snap *Machine
			mark int
		}
		var points []point
		for i := 0; i < 40; i++ {
			en := m.EnabledThreads(nil)
			if len(en) == 0 {
				break
			}
			if r.Intn(4) == 0 {
				snap, ok := m.Snapshot()
				if !ok {
					t.Fatal("snapshot must succeed")
				}
				points = append(points, point{snap: snap, mark: m.UndoMark()})
			}
			if len(points) > 0 && r.Intn(6) == 0 {
				p := points[r.Intn(len(points))]
				m.UndoTo(p.mark)
				if m.StateKey() != p.snap.StateKey() || m.StateSig() != p.snap.StateSig() {
					t.Fatalf("seed %d: undo diverged from snapshot:\n undo=%s\n snap=%s",
						seed, m.StateKey(), p.snap.StateKey())
				}
				// Drop points above the rewind target.
				kept := points[:0]
				for _, q := range points {
					if q.mark <= p.mark {
						kept = append(kept, q)
					}
				}
				points = kept
				continue
			}
			m.Step(en[r.Intn(len(en))])
		}
	}
}

// TestEnableUndoRejectsOpaqueCoroutines: programs whose coroutines
// cannot snapshot must be refused, leaving the machine in plain mode.
func TestEnableUndoRejectsOpaqueCoroutines(t *testing.T) {
	m := NewMachine(Opaque(&scriptSource{
		name: "opaque", vars: 1,
		threads: [][]event.Op{{wr(0, 1)}},
		initial: allThreads(1),
	}))
	if m.EnableUndo() {
		t.Fatal("EnableUndo must reject non-snapshottable coroutines")
	}
	m.Step(0) // must not panic: undo was never enabled
	if m.UndoMark() != 0 {
		t.Fatal("no undo records must be written in plain mode")
	}
}

// TestStateSigAgreesWithKey: equal keys imply equal signatures and
// (collision-negligibly) different keys imply different signatures.
func TestStateSigAgreesWithKey(t *testing.T) {
	mk := func(x int64, fail bool) *Machine {
		ops := []event.Op{wr(0, x)}
		if fail {
			ops = append(ops, as(0))
		}
		src := &scriptSource{
			name: "sig", vars: 1,
			threads: [][]event.Op{ops},
			initial: allThreads(1),
		}
		m := NewMachine(src)
		for {
			en := m.EnabledThreads(nil)
			if len(en) == 0 {
				return m
			}
			m.Step(en[0])
		}
	}
	a, b, c, d := mk(1, false), mk(1, false), mk(2, false), mk(1, true)
	if a.StateSig() != b.StateSig() {
		t.Error("identical states must have identical signatures")
	}
	if a.StateSig() == c.StateSig() {
		t.Error("different stores must produce different signatures")
	}
	if a.StateSig() == d.StateSig() {
		t.Error("failures must be part of the signature")
	}
	if a.StateSig().String() == "" {
		t.Error("signature must render")
	}
}

func TestStateKeyAndHashAgree(t *testing.T) {
	mk := func(x int64) *Machine {
		src := &scriptSource{
			name: "key", vars: 1,
			threads: [][]event.Op{{wr(0, x)}},
			initial: allThreads(1),
		}
		m := NewMachine(src)
		m.Step(0)
		return m
	}
	a, b, c := mk(1), mk(1), mk(2)
	if a.StateKey() != b.StateKey() || a.StateSig() != b.StateSig() {
		t.Error("identical states must agree on key and signature")
	}
	if a.StateKey() == c.StateKey() {
		t.Error("different states must produce different keys")
	}
	if a.StateSig() == c.StateSig() {
		t.Error("different states should produce different signatures")
	}
}

func TestStatusString(t *testing.T) {
	if NotStarted.String() != "notstarted" || Running.String() != "running" || Done.String() != "done" {
		t.Error("status strings wrong")
	}
	if !strings.Contains(Status(9).String(), "9") {
		t.Error("unknown status should render its number")
	}
}

func TestFailKindString(t *testing.T) {
	if FailAssert.String() != "assert" || FailLockMisuse.String() != "lock-misuse" || FailSpawnMisuse.String() != "spawn-misuse" {
		t.Error("failure kind strings wrong")
	}
}
