package model

import (
	"testing"
	"time"

	"repro/internal/event"
)

// dv returns the divergence sentinel op.
func dv() event.Op { return event.Op{Kind: event.KindDiverge} }

// TestDivergeSentinelFencesThread: a coroutine announcing the
// KindDiverge sentinel is fenced on sight — no watchdog needed — and
// the rest of the universe keeps running.
func TestDivergeSentinelFencesThread(t *testing.T) {
	src := &scriptSource{
		name: "sentinel", vars: 1,
		threads: [][]event.Op{
			{rd(0), dv()},
			{wr(0, 1), wr(0, 2)},
		},
		initial: allThreads(2),
	}
	m := NewMachine(src)
	m.Step(0) // t0's read; its next announcement is the sentinel
	if !m.HasDiverged() || m.DivergedThread() != 0 {
		t.Fatalf("HasDiverged=%v DivergedThread=%d, want t0 fenced", m.HasDiverged(), m.DivergedThread())
	}
	if got := m.Status(0); got != Diverged {
		t.Fatalf("t0 status = %v, want Diverged", got)
	}
	// The fenced thread is out of the schedulable universe; t1 is not.
	if en := m.EnabledThreads(nil); len(en) != 1 || en[0] != 1 {
		t.Fatalf("enabled = %v, want [1]", en)
	}
	// A diverged thread is neither deadlock fodder nor a terminator.
	if m.Deadlocked() {
		t.Fatal("diverged machine misreported deadlock")
	}
	m.Step(1)
	m.Step(1)
	if !m.Terminated() {
		t.Fatal("machine with only a fenced thread left should be terminal")
	}
	if len(m.Failures()) != 0 {
		t.Fatalf("divergence recorded failures: %v", m.Failures())
	}
}

// stallSource starts threads whose PeekTimeout gives up at a scripted
// operation index, standing in for a goroutine body stuck in local
// computation. It counts Start calls and paid timeouts so tests can
// pin the hint memoisation.
type stallSource struct {
	scriptSource
	stallThread event.ThreadID
	stallAt     int // op index at which the thread goes silent
	starts      int
	timeouts    int
}

func (s *stallSource) Start(t event.ThreadID) Coroutine {
	s.starts++
	return &stallCoroutine{src: s, t: t, ops: s.threads[t]}
}

type stallCoroutine struct {
	src *stallSource
	t   event.ThreadID
	ops []event.Op
	pc  int
}

func (c *stallCoroutine) Peek() (event.Op, bool) {
	if c.t == c.src.stallThread && c.pc == c.src.stallAt {
		panic("stallCoroutine: plain Peek would hang; the machine must use PeekTimeout")
	}
	if c.pc >= len(c.ops) {
		return event.Op{}, false
	}
	return c.ops[c.pc], true
}

func (c *stallCoroutine) PeekTimeout(d time.Duration) (event.Op, bool) {
	if c.t == c.src.stallThread && c.pc == c.src.stallAt {
		c.src.timeouts++
		return event.Op{Kind: event.KindDiverge}, true
	}
	return c.Peek()
}

func (c *stallCoroutine) Resume(int64) { c.pc++ }

// TestDivergenceHintsShared: the first machine to discover a stuck
// point pays the timeout and memoises it; a second machine sharing
// the hint set fences the thread at start without even launching its
// coroutine.
func TestDivergenceHintsShared(t *testing.T) {
	src := &stallSource{
		scriptSource: scriptSource{
			name: "stall0", vars: 1,
			threads: [][]event.Op{
				{rd(0)}, // stalls before its first announcement
				{wr(0, 1)},
			},
			initial: allThreads(2),
		},
		stallThread: 0,
		stallAt:     0,
	}
	hints := NewDivergeHints()
	cfg := MachineConfig{StallTimeout: time.Millisecond, Hints: hints}

	m1 := NewMachineCfg(src, cfg)
	if !m1.HasDiverged() || m1.DivergedThread() != 0 {
		t.Fatalf("m1: HasDiverged=%v DivergedThread=%d, want t0", m1.HasDiverged(), m1.DivergedThread())
	}
	if src.timeouts != 1 {
		t.Fatalf("m1 paid %d timeouts, want 1", src.timeouts)
	}
	startsAfterM1 := src.starts

	m2 := NewMachineCfg(src, cfg)
	if !m2.HasDiverged() || m2.DivergedThread() != 0 {
		t.Fatalf("m2: HasDiverged=%v DivergedThread=%d, want t0", m2.HasDiverged(), m2.DivergedThread())
	}
	if src.timeouts != 1 {
		t.Fatalf("hint not honoured: %d timeouts paid, want 1", src.timeouts)
	}
	// m2 started only t1: the doomed t0 coroutine was never launched.
	if src.starts != startsAfterM1+1 {
		t.Fatalf("m2 started %d coroutines, want 1 (t1 only)", src.starts-startsAfterM1)
	}
	if st := m2.Status(0); st != Diverged {
		t.Fatalf("m2 t0 status = %v, want Diverged", st)
	}
	// The healthy thread still runs to completion in both machines.
	m2.Step(1)
	if !m2.Terminated() {
		t.Fatal("m2 should be terminal after t1's write")
	}
}

// TestDivergenceHintMidThread: a stall after the thread's first
// operation is memoised at (thread, step, observation) granularity;
// the second machine pays no timeout when it replays into it.
func TestDivergenceHintMidThread(t *testing.T) {
	src := &stallSource{
		scriptSource: scriptSource{
			name: "stall1", vars: 1,
			threads: [][]event.Op{
				{rd(0), wr(0, 7)}, // stalls after the read (before op 1)
				{wr(0, 1)},
			},
			initial: allThreads(2),
		},
		stallThread: 0,
		stallAt:     1,
	}
	hints := NewDivergeHints()
	cfg := MachineConfig{StallTimeout: time.Millisecond, Hints: hints}

	m1 := NewMachineCfg(src, cfg)
	m1.Step(0)
	if !m1.HasDiverged() {
		t.Fatal("m1: stepping into the stall should fence t0")
	}
	if src.timeouts != 1 {
		t.Fatalf("m1 paid %d timeouts, want 1", src.timeouts)
	}

	m2 := NewMachineCfg(src, cfg)
	m2.Step(0) // same observation history → same hint key
	if !m2.HasDiverged() || m2.DivergedThread() != 0 {
		t.Fatal("m2: hint should fence t0 at the same point")
	}
	if src.timeouts != 1 {
		t.Fatalf("hint not honoured mid-thread: %d timeouts paid, want 1", src.timeouts)
	}
}

// TestResetAfterDivergence: a machine fenced by the stall watchdog
// resets to the state of a fresh machine sharing its hints, keeps its
// watchdog and hints, and re-fences the thread at the memoised point
// without paying another timeout — for a stall mid-thread and one
// before the thread's first announcement.
func TestResetAfterDivergence(t *testing.T) {
	for _, stallAt := range []int{0, 1} {
		src := &stallSource{
			scriptSource: scriptSource{
				name: "stall-reset", vars: 1,
				threads: [][]event.Op{{rd(0), wr(0, 7)}, {wr(0, 1)}},
				initial: allThreads(2),
				init:    map[int32]int64{0: 4},
			},
			stallThread: 0,
			stallAt:     stallAt,
		}
		cfg := MachineConfig{StallTimeout: time.Millisecond, Hints: NewDivergeHints()}
		m := NewMachineCfg(src, cfg)
		if stallAt > 0 {
			m.Step(0)
		}
		if !m.HasDiverged() || src.timeouts != 1 {
			t.Fatalf("stallAt %d: setup: diverged=%v timeouts=%d", stallAt, m.HasDiverged(), src.timeouts)
		}
		m.Reset()
		fresh := NewMachineCfg(src, cfg)
		for _, mm := range []*Machine{m, fresh} {
			if stallAt > 0 {
				mm.Step(0)
			}
		}
		for _, th := range []event.ThreadID{0, 1} {
			if m.Status(th) != fresh.Status(th) || m.Steps(th) != fresh.Steps(th) {
				t.Errorf("stallAt %d: t%d status %v steps %d, want %v %d", stallAt, th,
					m.Status(th), m.Steps(th), fresh.Status(th), fresh.Steps(th))
			}
		}
		if m.StateSig() != fresh.StateSig() || m.StateKey() != fresh.StateKey() {
			t.Errorf("stallAt %d: state %s, want %s", stallAt, m.StateKey(), fresh.StateKey())
		}
		if m.DivergedThread() != 0 || fresh.DivergedThread() != 0 {
			t.Errorf("stallAt %d: diverged threads %d and %d, want t0", stallAt, m.DivergedThread(), fresh.DivergedThread())
		}
		if src.timeouts != 1 {
			t.Errorf("stallAt %d: %d timeouts paid, want 1 (hint lost across Reset?)", stallAt, src.timeouts)
		}
		m.Step(1)
		fresh.Step(1)
		if m.StateKey() != fresh.StateKey() || !m.Terminated() {
			t.Errorf("stallAt %d: after t1: %s, want %s", stallAt, m.StateKey(), fresh.StateKey())
		}
	}
}
