// Package model defines the abstract machine executed by the
// systematic concurrency tester: a shared store of integer variables, a
// set of mutexes with ownership semantics, and a set of threads whose
// code is supplied by a Source as cooperative coroutines.
//
// The machine is the single point of truth for enabledness: a thread is
// enabled when it is running and its pending visible operation can
// execute in the current state (a Lock of a held mutex and a Join of a
// live thread block). Exploration engines drive the machine one visible
// operation at a time and therefore control the interleaving completely
// — the Go runtime scheduler never influences the schedule.
package model

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Coroutine is one thread's code, exposed as a peek/resume state
// machine. Implementations must be deterministic: Peek must be
// idempotent (it may compute thread-local work once, then cache) and
// the announced operation must depend only on values delivered by
// earlier Resume calls.
type Coroutine interface {
	// Peek returns the thread's pending visible operation, or
	// ok=false once the thread has terminated.
	Peek() (op event.Op, ok bool)
	// Resume consumes the pending operation. result carries the
	// value observed by a Read and is zero otherwise.
	Resume(result int64)
}

// Abortable is implemented by coroutines that hold external resources
// (e.g. a goroutine) that must be released when an execution is
// abandoned before the thread terminates. The coroutine's owner
// releases it: a Machine's owner calls Machine.Abort (exec.Runner's
// owner calls Close), which aborts every coroutine the machine holds.
type Abortable interface {
	Abort()
}

// Rewinder is optionally implemented by coroutines that can run their
// thread again from the start, so a machine reuses one per thread slot
// across executions instead of calling Source.Start per thread per
// execution. A machine without the stall watchdog calls KeepAlive
// right after Start; only then does the coroutine outlive its thread,
// and only Abort ends it. With the watchdog armed, or behind a wrapper
// that does not forward Rewinder, coroutines are started and aborted
// per execution instead.
type Rewinder interface {
	// KeepAlive asks the coroutine to stay reusable after its thread
	// ends.
	KeepAlive()
	// Rewind returns the coroutine to the start of its thread,
	// unwinding a live thread first. It reports false when the
	// coroutine cannot be reused (it was aborted or fenced, or its
	// thread called runtime.Goexit); the machine then starts a new
	// one.
	Rewind() bool
}

// TimedPeeker is implemented by coroutines whose Peek can block on
// genuinely concurrent thread bodies (goharness). PeekTimeout behaves
// like Peek but gives up after d of wall-clock silence, fencing the
// coroutine and returning an event.KindDiverge sentinel: the thread is
// stuck in local computation and will never announce again.
type TimedPeeker interface {
	PeekTimeout(d time.Duration) (op event.Op, ok bool)
}

// TimedAborter is implemented by coroutines whose Abort can block on a
// hostile thread body (one that never reaches its next scheduling
// point, or swallows the abort). AbortTimeout abandons the coroutine
// after d instead of hanging the scheduler.
type TimedAborter interface {
	AbortTimeout(d time.Duration)
}

// PanicMessager is implemented by coroutines that announce
// event.KindPanic and can render the recovered panic value. The
// message must be deterministic for a given program and schedule: it
// is digested into state signatures and replay-verified by the
// counterexample pipeline.
type PanicMessager interface {
	PanicMessage() string
}

// Snapshottable is implemented by coroutines whose full state can be
// copied, enabling incremental (non-replay) exploration.
type Snapshottable interface {
	Snapshot() Coroutine
}

// SnapshotReuser is optionally implemented by Snapshottable coroutines
// that can copy their state into a coroutine the machine no longer
// uses, reusing its storage. SnapshotInto returns the copy: dst itself
// when it is the frontend's own type, a fresh Snapshot otherwise. The
// undo log uses it to make a forward Step allocation-free.
type SnapshotReuser interface {
	SnapshotInto(dst Coroutine) Coroutine
}

// Source describes a program under test: a fixed universe of threads,
// shared variables and mutexes, plus a factory for thread coroutines.
// Sources must be stateless with respect to executions: Start may be
// called many times for the same thread across schedules, and a
// Rewinder coroutine may run its thread many times.
type Source interface {
	// Name identifies the program in reports.
	Name() string
	// NumThreads returns the number of threads (IDs 0..n-1).
	NumThreads() int
	// NumVars returns the number of shared variables.
	NumVars() int
	// NumMutexes returns the number of mutexes.
	NumMutexes() int
	// Start creates a fresh coroutine for thread t. A coroutine that
	// holds resources (Abortable) is released by its owner: the
	// machine aborts it, and the machine's owner calls Machine.Abort
	// or exec.Runner.Close.
	Start(t event.ThreadID) Coroutine
	// InitiallyRunning lists the threads that are runnable at the
	// initial state; the rest must be started via Spawn. A nil or
	// empty result means {0}.
	InitiallyRunning() []event.ThreadID
}

// InitStorer is optionally implemented by Sources whose shared
// variables start at non-zero values.
type InitStorer interface {
	InitStore(store []int64)
}

// ChannelSource is optionally implemented by Sources whose programs
// use channels. Sources without channels need not implement it.
type ChannelSource interface {
	// NumChannels returns the number of channels (indices 0..n-1).
	NumChannels() int
	// ChannelCap returns channel c's buffer capacity; 0 means
	// unbuffered (rendezvous).
	ChannelCap(c int32) int
}

// NumChannels returns src's channel-universe size: its ChannelSource
// answer, or 0 when channels are not implemented.
func NumChannels(src Source) int {
	if cs, ok := src.(ChannelSource); ok {
		return cs.NumChannels()
	}
	return 0
}

// Status is a thread's lifecycle state.
type Status uint8

const (
	// NotStarted threads await a Spawn.
	NotStarted Status = iota
	// Running threads have a coroutine (possibly blocked).
	Running
	// Done threads have terminated.
	Done
	// Diverged threads were caught stuck in local computation (by the
	// stall watchdog or a frontend's diverge announcement) and fenced:
	// their coroutine is abandoned and never stepped again.
	Diverged
)

// String returns "notstarted", "running", "done" or "diverged".
func (s Status) String() string {
	switch s {
	case NotStarted:
		return "notstarted"
	case Running:
		return "running"
	case Done:
		return "done"
	case Diverged:
		return "diverged"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// NoOwner marks a free mutex.
const NoOwner event.ThreadID = -1

// FailKind classifies a safety violation.
type FailKind uint8

const (
	// FailAssert is a failed program assertion.
	FailAssert FailKind = iota
	// FailLockMisuse is an unlock of a mutex not held by the caller.
	FailLockMisuse
	// FailSpawnMisuse is a spawn of an already-started thread.
	FailSpawnMisuse
	// FailPanic is a thread body that panicked; the recovered value is
	// in the failure message.
	FailPanic
)

// String names the failure class.
func (k FailKind) String() string {
	switch k {
	case FailAssert:
		return "assert"
	case FailLockMisuse:
		return "lock-misuse"
	case FailSpawnMisuse:
		return "spawn-misuse"
	case FailPanic:
		return "panic"
	}
	return fmt.Sprintf("failkind(%d)", uint8(k))
}

// Failure records a safety violation observed during an execution.
type Failure struct {
	Kind   FailKind
	Thread event.ThreadID
	Index  int32 // per-thread event index at which the failure fired
	Msg    string
}

// String renders the failure for reports.
func (f Failure) String() string {
	return fmt.Sprintf("t%d#%d: %s", f.Thread, f.Index, f.Msg)
}

// ViolationKind names the most severe safety violation of a terminal
// execution — the single source of the violation classes and their
// precedence (panic > assertion failure > deadlock > lock misuse >
// data race) shared by the exploration recorder and replayed
// outcomes; "" when the execution is violation-free.
func ViolationKind(deadlocked bool, failures []Failure, raced bool) string {
	panics, asserts, lockErrs := 0, 0, 0
	for _, f := range failures {
		switch f.Kind {
		case FailPanic:
			panics++
		case FailAssert:
			asserts++
		default:
			lockErrs++
		}
	}
	switch {
	case panics > 0:
		return "panic"
	case asserts > 0:
		return "assertion failure"
	case deadlocked:
		return "deadlock"
	case lockErrs > 0:
		return "lock misuse"
	case raced:
		return "data race"
	}
	return ""
}

// chanState is one channel of a machine: a FIFO ring of int64
// payloads plus the closed flag. Unbuffered channels (capN == 0) use a
// single ring slot as the rendezvous cell: the send deposits, the
// paired receive drains. Blocking is not represented here — a channel
// operation that cannot fire simply leaves its thread non-enabled, so
// "waiter sets" are exactly the pending announcements the machine
// already tracks.
type chanState struct {
	capN   int32 // declared capacity; 0 = unbuffered
	head   int32 // ring index of the oldest value
	count  int32 // values currently buffered
	closed bool
	buf    []int64 // len = max(capN, 1)
}

// Machine is one live execution instance of a Source.
type Machine struct {
	src      Source
	store    []int64
	owner    []event.ThreadID
	chans    []chanState
	status   []Status
	cor      []Coroutine
	steps    []int32
	pending  []event.Op
	havePend []bool
	failures []Failure
	executed int
	// idle[t] is a Rewinder coroutine of thread t kept from an earlier
	// execution, for startThread to rewind instead of calling
	// Source.Start: live (Reset left its body mid-execution) or
	// parked (its thread ended). Abort releases it.
	idle []Coroutine

	// stall is the divergence watchdog's wall-clock budget for one
	// Peek; 0 disables the watchdog (Peek may block forever).
	stall time.Duration
	// divergedT is the thread whose divergence ended this execution,
	// or NoOwner. Exploration must stop extending a diverged machine.
	divergedT event.ThreadID
	// obsHash and hints exist only while the watchdog is armed:
	// obsHash[t] is a running hash of the Resume results delivered to
	// t (a thread's behaviour is a pure function of its code and its
	// observation history), and hints memoises discovered divergence
	// points so re-visiting one in a later schedule fences the thread
	// immediately instead of re-waiting the timeout and leaking
	// another stuck goroutine.
	obsHash []uint64
	hints   *DivergeHints

	// undo is the reversal log recorded when undoEnabled: one O(1)
	// record per Step, letting UndoTo rewind the machine in place
	// instead of restoring a deep snapshot.
	undo        []undoRec
	undoEnabled bool
	// spare holds the live coroutines UndoTo replaced by their logged
	// checkpoints and those of threads that finished in an undo-logged
	// step; the next undo-logged Step copies into one of them instead
	// of allocating. Only SnapshotReusers are kept, so every entry is
	// consumed by a later Step and the list never outgrows the undo
	// depth.
	spare []Coroutine
}

// divergeKey identifies a divergence point schedule-independently: the
// thread, how many operations it had executed, and the hash of every
// value it had observed. Two executions agreeing on all three put the
// thread in the same local state, so it diverges in both.
type divergeKey struct {
	t   event.ThreadID
	k   int32
	obs uint64
}

// DivergeHints memoises divergence points across the machines of one
// exploration, so each stuck loop costs one wall-clock timeout (and
// one leaked goroutine) total, not one per schedule that reaches it.
// Hints are monotone facts about the program and are never undone.
type DivergeHints struct {
	mu sync.Mutex
	m  map[divergeKey]struct{}
	// hits counts lookups that found a memoised divergence point —
	// threads fenced immediately instead of re-waiting the watchdog
	// timeout. Telemetry only.
	hits atomic.Int64
}

// NewDivergeHints returns an empty hint set, shareable by every
// machine exploring the same program.
func NewDivergeHints() *DivergeHints { return &DivergeHints{m: map[divergeKey]struct{}{}} }

func (h *DivergeHints) add(k divergeKey) {
	h.mu.Lock()
	h.m[k] = struct{}{}
	h.mu.Unlock()
}

func (h *DivergeHints) has(k divergeKey) bool {
	h.mu.Lock()
	_, ok := h.m[k]
	h.mu.Unlock()
	if ok {
		h.hits.Add(1)
	}
	return ok
}

// Hits reports how many lookups found a memoised divergence point —
// the schedules that skipped a watchdog timeout thanks to the hint
// set. Monotone; safe to read concurrently.
func (h *DivergeHints) Hits() int64 { return h.hits.Load() }

// MachineConfig carries the fault-containment knobs of a machine.
type MachineConfig struct {
	// StallTimeout arms the divergence watchdog: a coroutine silent
	// for this long during a Peek is fenced and the execution marked
	// diverged. 0 disables the watchdog.
	StallTimeout time.Duration
	// Hints shares discovered divergence points across machines. When
	// nil and StallTimeout > 0, the machine records hints privately.
	Hints *DivergeHints
}

// undoRec captures everything one Step mutates. Machine-level effects
// (store cell, mutex owner, statuses, counters) are plain old values;
// the only per-step copy is the stepping thread's coroutine state,
// which is cheap by design (pc + locals for progdsl interpreters).
type undoRec struct {
	t       event.ThreadID
	spawned event.ThreadID // thread started by this step, or NoOwner
	op      event.Op       // t's pending operation before the step
	cor     Coroutine      // t's coroutine state before Resume
	oldVal  int64          // overwritten store value (KindWrite) or ring slot (KindSend)
	oldOwn  event.ThreadID // previous mutex owner (KindLock/KindUnlock)
	oldObs  uint64         // t's observation hash before the step (watchdog armed)
	nfail   int32          // len(failures) before the step

	// Channel reversal state: the mutated channel (-1 when the step
	// touched none, e.g. a select that committed its default case) and
	// its scalar state before the step. A drained value needs no copy:
	// undo order is LIFO, so any later send that overwrote the slot is
	// undone first and restores it through oldVal.
	chObj    int32
	chHead   int32
	chCount  int32
	chClosed bool
}

// saveChan captures channel c's scalar pre-state into the record.
func (r *undoRec) saveChan(c int32, ch *chanState) {
	r.chObj = c
	r.chHead = ch.head
	r.chCount = ch.count
	r.chClosed = ch.closed
}

// NewMachine creates a machine at the initial state of src with the
// divergence watchdog disabled.
func NewMachine(src Source) *Machine {
	return NewMachineCfg(src, MachineConfig{})
}

// NewMachineCfg creates a machine at the initial state of src. The
// config must be supplied at construction: starting the initial
// threads already Peeks their first operations, which is where a
// diverging thread body would otherwise hang forever.
func NewMachineCfg(src Source, cfg MachineConfig) *Machine {
	n := src.NumThreads()
	m := &Machine{
		src:       src,
		store:     make([]int64, src.NumVars()),
		owner:     make([]event.ThreadID, src.NumMutexes()),
		status:    make([]Status, n),
		cor:       make([]Coroutine, n),
		idle:      make([]Coroutine, n),
		steps:     make([]int32, n),
		pending:   make([]event.Op, n),
		havePend:  make([]bool, n),
		stall:     cfg.StallTimeout,
		divergedT: NoOwner,
	}
	if cs, ok := src.(ChannelSource); ok {
		m.chans = make([]chanState, cs.NumChannels())
		for c := range m.chans {
			capN := cs.ChannelCap(int32(c))
			m.chans[c] = chanState{capN: int32(capN), buf: make([]int64, max(capN, 1))}
		}
	}
	if m.stall > 0 {
		m.obsHash = make([]uint64, n)
		m.hints = cfg.Hints
		if m.hints == nil {
			m.hints = NewDivergeHints()
		}
	}
	m.start()
	return m
}

// start brings a machine whose per-thread, store and channel state is
// zeroed to src's initial state: free mutexes, the initial store, and
// the initial threads started.
func (m *Machine) start() {
	for i := range m.owner {
		m.owner[i] = NoOwner
	}
	if is, ok := m.src.(InitStorer); ok {
		is.InitStore(m.store)
	}
	initial := m.src.InitiallyRunning()
	if len(initial) == 0 {
		initial = []event.ThreadID{0}
	}
	for _, t := range initial {
		m.startThread(t)
	}
}

// Reset returns the machine to its source's initial state in place,
// reusing its storage: still-running Rewinder coroutines move to the
// idle slots with the finished ones, the other still-running
// coroutines are aborted as by Abort, the initial threads are
// restarted, and the configuration, divergence hints, undo switch and
// recycled coroutine checkpoints are kept. The failure log is dropped
// rather than truncated, so a slice returned by Failures before the
// call is never overwritten.
func (m *Machine) Reset() {
	for t, c := range m.cor {
		if m.status[t] == Running {
			m.retire(event.ThreadID(t), c)
		}
	}
	clear(m.store)
	for i := range m.chans {
		ch := &m.chans[i]
		ch.head, ch.count, ch.closed = 0, 0, false
		clear(ch.buf)
	}
	clear(m.status)
	clear(m.cor)
	clear(m.steps)
	clear(m.pending)
	clear(m.havePend)
	clear(m.obsHash)
	m.failures = nil
	m.executed = 0
	m.divergedT = NoOwner
	clear(m.undo) // release the checkpoint references
	m.undo = m.undo[:0]
	m.start()
}

func (m *Machine) startThread(t event.ThreadID) {
	if m.hints != nil && m.hints.has(divergeKey{t, 0, 0}) {
		// Known to diverge before its first announcement: fence it
		// without starting a doomed coroutine.
		m.status[t] = Running
		m.markDiverged(t)
		return
	}
	m.status[t] = Running
	if c := m.idle[t]; c != nil {
		m.idle[t] = nil
		if c.(Rewinder).Rewind() {
			m.cor[t] = c
			m.refresh(t)
			return
		}
	}
	c := m.src.Start(t)
	if r, ok := m.rewinder(c); ok {
		r.KeepAlive()
	}
	m.cor[t] = c
	m.refresh(t)
}

// rewinder reports whether the machine reuses c across executions: c
// is a Rewinder and the watchdog is off, whose timed switches keep the
// start-and-abort lifecycle.
func (m *Machine) rewinder(c Coroutine) (Rewinder, bool) {
	if m.stall > 0 {
		return nil, false
	}
	r, ok := c.(Rewinder)
	return r, ok
}

// retire takes thread t's coroutine c out of the execution: a reused
// coroutine waits in t's idle slot for a later execution, any other
// one is aborted.
func (m *Machine) retire(t event.ThreadID, c Coroutine) {
	if _, ok := m.rewinder(c); ok {
		m.idle[t] = c
	} else {
		m.abort(c)
	}
}

// abort releases coroutine c. With the watchdog armed, coroutines that
// support timed aborts get the stall budget to comply and are
// abandoned otherwise, so one hostile thread cannot hang the teardown
// of an otherwise healthy execution.
func (m *Machine) abort(c Coroutine) {
	if ta, ok := c.(TimedAborter); ok && m.stall > 0 {
		ta.AbortTimeout(m.stall)
	} else if a, ok := c.(Abortable); ok {
		a.Abort()
	}
}

// refresh re-peeks thread t's pending operation and settles Done state.
func (m *Machine) refresh(t event.ThreadID) {
	if m.status[t] != Running {
		m.havePend[t] = false
		return
	}
	var op event.Op
	var ok bool
	if tp, timed := m.cor[t].(TimedPeeker); timed && m.stall > 0 {
		op, ok = tp.PeekTimeout(m.stall)
	} else {
		op, ok = m.cor[t].Peek()
	}
	if !ok {
		m.status[t] = Done
		m.havePend[t] = false
		if _, reused := m.rewinder(m.cor[t]); reused {
			m.idle[t] = m.cor[t]
		} else {
			m.recycle(m.cor[t])
		}
		m.cor[t] = nil
		return
	}
	if op.Kind == event.KindDiverge {
		m.markDiverged(t)
		return
	}
	m.pending[t] = op
	m.havePend[t] = true
}

// markDiverged fences thread t: its coroutine is abandoned (never
// peeked, resumed or aborted again) and the execution is flagged so
// exploration stops extending it. The divergence point is memoised
// when the watchdog is armed.
func (m *Machine) markDiverged(t event.ThreadID) {
	m.status[t] = Diverged
	m.cor[t] = nil
	m.havePend[t] = false
	m.divergedT = t
	if m.hints != nil {
		var obs uint64
		if m.obsHash != nil {
			obs = m.obsHash[t]
		}
		m.hints.add(divergeKey{t, m.steps[t], obs})
	}
}

// HasDiverged reports whether some thread of this execution was fenced
// as diverging; such an execution must not be extended further.
func (m *Machine) HasDiverged() bool { return m.divergedT != NoOwner }

// DivergedThread returns the fenced thread, or NoOwner.
func (m *Machine) DivergedThread() event.ThreadID { return m.divergedT }

// Source returns the program this machine executes.
func (m *Machine) Source() Source { return m.src }

// NumThreads returns the thread-universe size.
func (m *Machine) NumThreads() int { return len(m.status) }

// Executed returns the number of visible operations executed so far.
func (m *Machine) Executed() int { return m.executed }

// Steps returns how many events thread t has executed.
func (m *Machine) Steps(t event.ThreadID) int32 { return m.steps[t] }

// Status returns thread t's lifecycle state.
func (m *Machine) Status(t event.ThreadID) Status { return m.status[t] }

// Load returns the current value of variable v.
func (m *Machine) Load(v int32) int64 { return m.store[v] }

// Owner returns the holder of mutex mu, or NoOwner.
func (m *Machine) Owner(mu int32) event.ThreadID { return m.owner[mu] }

// NumChannels returns the channel-universe size.
func (m *Machine) NumChannels() int { return len(m.chans) }

// ChanLen returns the number of values buffered in channel c.
func (m *Machine) ChanLen(c int32) int { return int(m.chans[c].count) }

// ChanClosed reports whether channel c has been closed.
func (m *Machine) ChanClosed(c int32) bool { return m.chans[c].closed }

// Failures returns the safety violations recorded so far.
func (m *Machine) Failures() []Failure { return m.failures }

// Pending returns thread t's announced next operation; ok is false if t
// is not running (not started or terminated).
func (m *Machine) Pending(t event.ThreadID) (event.Op, bool) {
	if !m.havePend[t] {
		return event.Op{}, false
	}
	return m.pending[t], true
}

// Enabled reports whether thread t can execute its pending operation in
// the current state.
func (m *Machine) Enabled(t event.ThreadID) bool {
	op, ok := m.Pending(t)
	if !ok {
		return false
	}
	switch op.Kind {
	case event.KindLock:
		return m.owner[op.Obj] == NoOwner
	case event.KindJoin:
		return m.status[op.Obj] == Done
	case event.KindSend:
		ch := &m.chans[op.Obj]
		if ch.closed {
			return true // fires the send-on-closed panic
		}
		if ch.capN > 0 {
			return ch.count < ch.capN
		}
		// Unbuffered: the rendezvous slot must be free and a receiver
		// must be committed to this channel. Only a dedicated pending
		// recv gates the send — a pending select with a case on this
		// channel may consume the value but does not enable the send,
		// since it could commit to a different case and strand the
		// deposit (documented v1 approximation).
		return ch.count == 0 && m.recvPending(t, op.Obj)
	case event.KindRecv:
		ch := &m.chans[op.Obj]
		return ch.count > 0 || ch.closed
	case event.KindClose:
		return true // close-of-closed fires a panic
	case event.KindSelect:
		if event.SelectHasDefault(op.Val) {
			return true
		}
		for c, mask := int32(0), event.SelectCases(op.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			if ch := &m.chans[c]; ch.count > 0 || ch.closed {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// recvPending reports whether some thread other than t has announced a
// dedicated receive on channel c.
func (m *Machine) recvPending(t event.ThreadID, c int32) bool {
	for q := range m.pending {
		if event.ThreadID(q) != t && m.havePend[q] &&
			m.pending[q].Kind == event.KindRecv && m.pending[q].Obj == c {
			return true
		}
	}
	return false
}

// EnabledThreads appends the IDs of all enabled threads to buf (in
// ascending order) and returns it.
func (m *Machine) EnabledThreads(buf []event.ThreadID) []event.ThreadID {
	buf = buf[:0]
	for t := range m.status {
		if m.Enabled(event.ThreadID(t)) {
			buf = append(buf, event.ThreadID(t))
		}
	}
	return buf
}

// Terminated reports whether every thread in the universe has either
// finished or was never started and is unreachable (no pending spawn).
// For simplicity a machine is terminal when no thread is enabled and no
// thread is blocked; Deadlocked distinguishes the stuck case.
func (m *Machine) Terminated() bool {
	for t := range m.status {
		if m.status[t] == Running {
			return false
		}
	}
	return true
}

// Deadlocked reports whether some thread is running (hence blocked,
// since deadlock is only meaningful when nothing is enabled) while no
// thread is enabled.
func (m *Machine) Deadlocked() bool {
	any := false
	for t := range m.status {
		tt := event.ThreadID(t)
		if m.status[t] == Running {
			any = true
			if m.Enabled(tt) {
				return false
			}
		}
	}
	return any
}

// Step executes thread t's pending operation and returns the resulting
// trace event. It panics if t is not enabled: exploration engines must
// only step enabled threads.
func (m *Machine) Step(t event.ThreadID) event.Event {
	if !m.Enabled(t) {
		panic(fmt.Sprintf("model: Step(%d) on non-enabled thread (status=%v)", t, m.status[t]))
	}
	op := m.pending[t]
	var rec *undoRec
	if m.undoEnabled {
		// Built in place: a reused slot holds a stale record, so every
		// field UndoTo reads for this kind is written here or below.
		cor := m.checkpoint(m.cor[t])
		n := len(m.undo)
		m.undo = slices.Grow(m.undo, 1)[:n+1]
		rec = &m.undo[n]
		rec.t, rec.spawned, rec.op, rec.cor = t, NoOwner, op, cor
		rec.nfail = int32(len(m.failures))
		rec.chObj = -1
		switch op.Kind {
		case event.KindWrite:
			rec.oldVal = m.store[op.Obj]
		case event.KindLock, event.KindUnlock:
			rec.oldOwn = m.owner[op.Obj]
		case event.KindSend, event.KindRecv, event.KindClose:
			ch := &m.chans[op.Obj]
			rec.saveChan(op.Obj, ch)
			if op.Kind == event.KindSend {
				// The slot a deposit would overwrite; restoring it on
				// undo is what keeps a later-undone receive's drained
				// value alive (LIFO).
				rec.oldVal = ch.buf[(ch.head+ch.count)%int32(len(ch.buf))]
			}
			// A select's mutated channel is only known after the
			// commit; the execution branch fills the record then.
		}
	}
	var result int64
	killed := false
	selChosen := int32(-1)
	switch op.Kind {
	case event.KindRead:
		result = m.store[op.Obj]
	case event.KindWrite:
		m.store[op.Obj] = op.Val
	case event.KindLock:
		m.owner[op.Obj] = t
	case event.KindUnlock:
		if m.owner[op.Obj] != t {
			m.fail(t, FailLockMisuse, fmt.Sprintf("unlock of mutex m%d not held by unlocker (owner=%d)", op.Obj, m.owner[op.Obj]))
		}
		m.owner[op.Obj] = NoOwner
	case event.KindSpawn:
		c := event.ThreadID(op.Obj)
		if m.status[c] != NotStarted {
			m.fail(t, FailSpawnMisuse, fmt.Sprintf("spawn of already-started thread t%d", c))
		} else {
			m.startThread(c)
			if rec != nil {
				rec.spawned = c
			}
		}
	case event.KindJoin:
		// Enabledness already guarantees the target is Done.
	case event.KindAssert:
		if op.Val == 0 {
			m.fail(t, FailAssert, "assertion failure")
		}
	case event.KindPanic:
		m.fail(t, FailPanic, panicMessage(m.cor[t], op))
	case event.KindSend:
		ch := &m.chans[op.Obj]
		if ch.closed {
			m.fail(t, FailPanic, fmt.Sprintf("panic: send on closed channel c%d", op.Obj))
			killed = true
		} else {
			ch.buf[(ch.head+ch.count)%int32(len(ch.buf))] = op.Val
			ch.count++
		}
	case event.KindRecv:
		ch := &m.chans[op.Obj]
		if ch.count > 0 {
			val := ch.buf[ch.head]
			ch.head = (ch.head + 1) % int32(len(ch.buf))
			ch.count--
			result = event.PackRecvResult(val, true)
		} else {
			// Enabledness guarantees the channel is closed: yield the
			// zero value with ok=false, like Go.
			result = event.PackRecvResult(0, false)
		}
	case event.KindClose:
		ch := &m.chans[op.Obj]
		if ch.closed {
			m.fail(t, FailPanic, fmt.Sprintf("panic: close of closed channel c%d", op.Obj))
			killed = true
		} else {
			ch.closed = true
		}
	case event.KindSelect:
		// Deterministic commit: the lowest-numbered ready case wins;
		// the default fires only when no case is ready (enabledness
		// guarantees a default exists in that situation).
		for c, mask := int32(0), event.SelectCases(op.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			if ch := &m.chans[c]; ch.count > 0 || ch.closed {
				selChosen = c
				break
			}
		}
		if selChosen >= 0 {
			ch := &m.chans[selChosen]
			if rec != nil {
				rec.saveChan(selChosen, ch)
			}
			if ch.count > 0 {
				val := ch.buf[ch.head]
				ch.head = (ch.head + 1) % int32(len(ch.buf))
				ch.count--
				result = event.PackSelectResult(selChosen, val, true)
			} else {
				result = event.PackSelectResult(selChosen, 0, false)
			}
		} else {
			result = event.PackSelectResult(-1, 0, false)
		}
	}
	ev := event.Event{Thread: t, Index: m.steps[t], Op: op, Seen: result}
	if op.Kind == event.KindWrite {
		ev.Seen = op.Val
	}
	if op.Kind == event.KindSelect {
		// The committed event carries the chosen channel (-1 for the
		// default case); the full case set stays in Val.
		ev.Obj = selChosen
	}
	m.steps[t]++
	m.executed++
	m.havePend[t] = false
	if killed {
		// The operation panicked (send on closed, close of closed):
		// the thread dies at this event, like a Go goroutine whose
		// panic is the violation. Its coroutine never observes the
		// result, so it is aborted rather than resumed; undo restores
		// it from the record's snapshot.
		if m.hints != nil && rec != nil {
			rec.oldObs = m.obsHash[t]
		}
		m.killThread(t)
		return ev
	}
	if m.hints != nil {
		if rec != nil {
			rec.oldObs = m.obsHash[t]
		}
		m.obsHash[t] = mixObs(m.obsHash[t], result)
		if m.hints.has(divergeKey{t, m.steps[t], m.obsHash[t]}) {
			// A previous schedule proved this thread diverges here.
			// Grant an abort instead of resuming into the stuck loop,
			// then fence the thread without waiting out the timeout.
			// Prefer the timed aborter: a hostile body could swallow a
			// plain abort and block this call forever.
			m.abort(m.cor[t])
			m.markDiverged(t)
			return ev
		}
	}
	m.cor[t].Resume(result)
	m.refresh(t)
	return ev
}

// panicMessage renders the deterministic failure message of a
// KindPanic operation: the coroutine's recovered value when it can
// report one, else the panic code the frontend encoded in Val.
func panicMessage(c Coroutine, op event.Op) string {
	if pm, ok := c.(PanicMessager); ok {
		if msg := pm.PanicMessage(); msg != "" {
			return "panic: " + msg
		}
	}
	return fmt.Sprintf("panic: code %d", op.Val)
}

// mixObs folds one observed Resume result into a thread's observation
// hash (a splitmix64 step, matching the repo's other mixers).
func mixObs(h uint64, result int64) uint64 {
	return splitmix64(h ^ (uint64(result) + 0x9e3779b97f4a7c15))
}

func (m *Machine) fail(t event.ThreadID, kind FailKind, msg string) {
	m.failures = append(m.failures, Failure{Kind: kind, Thread: t, Index: m.steps[t], Msg: msg})
}

// killThread terminates thread t at a machine-detected panic (send on
// closed, close of closed): the coroutine is released like an
// abandoned execution's and the thread is Done.
func (m *Machine) killThread(t event.ThreadID) {
	m.retire(t, m.cor[t])
	m.status[t] = Done
	m.cor[t] = nil
	m.havePend[t] = false
}

// Abort releases external resources of all still-running coroutines
// and of the idle ones kept for reuse, live or parked. The machine
// must not be used afterwards, except to Reset it.
func (m *Machine) Abort() {
	for t, c := range m.cor {
		if m.status[t] == Running {
			m.abort(c)
		}
	}
	for t, c := range m.idle {
		if c != nil {
			m.abort(c)
			m.idle[t] = nil
		}
	}
}

// Snapshot returns a deep copy of the machine, or ok=false if any live
// coroutine does not support snapshotting. The copy starts with an
// empty undo log and undo recording disabled. No explorer calls it:
// the undo log (EnableUndo/UndoTo) rewinds in place, and the undo
// tests use Snapshot as the reference implementation it must match.
func (m *Machine) Snapshot() (*Machine, bool) {
	cp := &Machine{
		src:       m.src,
		store:     append([]int64(nil), m.store...),
		owner:     append([]event.ThreadID(nil), m.owner...),
		chans:     append([]chanState(nil), m.chans...),
		status:    append([]Status(nil), m.status...),
		cor:       make([]Coroutine, len(m.cor)),
		idle:      make([]Coroutine, len(m.cor)),
		steps:     append([]int32(nil), m.steps...),
		pending:   append([]event.Op(nil), m.pending...),
		havePend:  append([]bool(nil), m.havePend...),
		failures:  append([]Failure(nil), m.failures...),
		executed:  m.executed,
		stall:     m.stall,
		divergedT: m.divergedT,
		obsHash:   append([]uint64(nil), m.obsHash...),
		hints:     m.hints, // shared: hints are monotone program facts
	}
	for i := range cp.chans {
		cp.chans[i].buf = append([]int64(nil), m.chans[i].buf...)
	}
	for t, c := range m.cor {
		if c == nil {
			continue
		}
		s, ok := c.(Snapshottable)
		if !ok {
			return nil, false
		}
		cp.cor[t] = s.Snapshot()
	}
	return cp, true
}

// EnableUndo switches the machine to record an undo log: every Step
// appends one O(1) reversal record and UndoTo rewinds the machine in
// place, replacing deep per-step snapshots on the exploration hot
// path. It reports false (and records nothing) when a live coroutine
// does not support snapshotting — such programs must be explored by
// replay. Threads spawned later must be snapshottable too; Step panics
// otherwise, mirroring Snapshot-based exploration.
func (m *Machine) EnableUndo() bool {
	for t, c := range m.cor {
		if m.status[t] != Running || c == nil {
			continue
		}
		if _, ok := c.(Snapshottable); !ok {
			return false
		}
	}
	m.undoEnabled = true
	return true
}

// UndoMark returns the current position in the undo log. With undo
// enabled every Step appends exactly one record, so the mark equals
// Executed().
func (m *Machine) UndoMark() int { return len(m.undo) }

// UndoTo rewinds the machine to the state it had at mark (a value
// previously returned by UndoMark), popping reversal records in LIFO
// order.
func (m *Machine) UndoTo(mark int) {
	if mark > len(m.undo) {
		panic(fmt.Sprintf("model: UndoTo(%d) beyond undo log length %d", mark, len(m.undo)))
	}
	for len(m.undo) > mark {
		r := &m.undo[len(m.undo)-1]
		switch r.op.Kind {
		case event.KindWrite:
			m.store[r.op.Obj] = r.oldVal
		case event.KindLock, event.KindUnlock:
			m.owner[r.op.Obj] = r.oldOwn
		case event.KindSend, event.KindRecv, event.KindClose, event.KindSelect:
			if r.chObj >= 0 {
				ch := &m.chans[r.chObj]
				if r.op.Kind == event.KindSend {
					ch.buf[(r.chHead+r.chCount)%int32(len(ch.buf))] = r.oldVal
				}
				ch.head, ch.count, ch.closed = r.chHead, r.chCount, r.chClosed
			}
		}
		if r.spawned != NoOwner {
			c := r.spawned
			m.status[c] = NotStarted
			m.cor[c] = nil
			m.havePend[c] = false
			if m.divergedT == c {
				m.divergedT = NoOwner
			}
		}
		t := r.t
		m.status[t] = Running
		if _, ok := m.cor[t].(SnapshotReuser); ok {
			m.spare = append(m.spare, m.cor[t])
		}
		m.cor[t] = r.cor
		m.pending[t] = r.op
		m.havePend[t] = true
		m.steps[t]--
		m.executed--
		if m.obsHash != nil {
			m.obsHash[t] = r.oldObs
		}
		if m.divergedT == t {
			m.divergedT = NoOwner
		}
		m.failures = m.failures[:r.nfail]
		r.cor = nil // release the snapshot reference
		m.undo = m.undo[:len(m.undo)-1]
	}
}

// checkpoint copies c for the undo log, recycling a spare coroutine
// when the frontend supports it.
func (m *Machine) checkpoint(c Coroutine) Coroutine {
	if r, ok := c.(SnapshotReuser); ok && len(m.spare) > 0 {
		n := len(m.spare) - 1
		dst := m.spare[n]
		m.spare[n] = nil
		m.spare = m.spare[:n]
		return r.SnapshotInto(dst)
	}
	s, ok := c.(Snapshottable)
	if !ok {
		panic("model: undo-logged Step on a non-snapshottable coroutine")
	}
	return s.Snapshot()
}

// recycle puts a finished thread's coroutine on the spare list, so the
// redo after undoing its last step copies into it instead of taking a
// fresh Snapshot. The coroutine is private: the log holds copies,
// never a live coroutine. Only undo-logged steps recycle, and never
// beyond the log's depth, so the spare list stays bounded by it even
// for threads that finish without a step.
func (m *Machine) recycle(c Coroutine) {
	if _, ok := c.(SnapshotReuser); ok && m.undoEnabled && len(m.spare) < len(m.undo) {
		m.spare = append(m.spare, c)
	}
}

// sortedFailures returns the failures in a canonical order — by
// (thread, index, kind) — so that state identity does not depend on
// the schedule-dependent order in which concurrent failures were
// recorded.
func (m *Machine) sortedFailures() []Failure {
	if len(m.failures) < 2 {
		return m.failures
	}
	fs := append([]Failure(nil), m.failures...)
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Thread != b.Thread {
			return a.Thread < b.Thread
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Kind < b.Kind
	})
	return fs
}

// StateKey returns an exact, human-readable encoding of the machine
// state: shared store, mutex owners, thread statuses and failures
// (canonically ordered). Equal keys mean equal states. Used by
// equivalence tests and state counting. The encoding is fmt's %v
// rendering of those slices, appended with strconv into one buffer.
func (m *Machine) StateKey() string {
	b := make([]byte, 0, 32+8*(len(m.store)+len(m.owner))+10*len(m.status))
	b = append(b, "store="...)
	b = appendInts(b, m.store)
	b = append(b, " owners="...)
	b = appendInts(b, m.owner)
	b = append(b, " status=["...)
	for i, s := range m.status {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, s.String()...)
	}
	b = append(b, ']')
	if len(m.chans) > 0 {
		// Ring contents are rendered head-first: two rings holding the
		// same values in the same FIFO order are the same logical
		// state regardless of where the ring happens to start.
		b = append(b, " chans=["...)
		for i := range m.chans {
			ch := &m.chans[i]
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, '[')
			for k := int32(0); k < ch.count; k++ {
				if k > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(b, ch.buf[(ch.head+k)%int32(len(ch.buf))], 10)
			}
			b = append(b, ']')
		}
		b = append(b, "] closed=["...)
		for i := range m.chans {
			if i > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendBool(b, m.chans[i].closed)
		}
		b = append(b, ']')
	}
	if len(m.failures) > 0 {
		b = append(b, " failures=["...)
		for i, f := range m.sortedFailures() {
			if i > 0 {
				b = append(b, ' ')
			}
			// Failure.String's "t%d#%d: %s".
			b = append(b, 't')
			b = strconv.AppendInt(b, int64(f.Thread), 10)
			b = append(b, '#')
			b = strconv.AppendInt(b, int64(f.Index), 10)
			b = append(b, ": "...)
			b = append(b, f.Msg...)
		}
		b = append(b, ']')
	}
	return string(b)
}

// appendInts appends vs as fmt's %v renders an integer slice:
// "[v0 v1 ...]".
func appendInts[T ~int32 | ~int64](b []byte, vs []T) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// StateSig is a 128-bit binary digest of a machine state: two
// decorrelated 64-bit streams over the same canonical encoding that
// StateKey renders. Equal states always have equal signatures;
// distinct states collide with probability ~2⁻¹²⁸, which the
// exploration engines' distinct-state sets treat as never. It is the
// allocation-free hot-path replacement for string StateKeys.
type StateSig [2]uint64

// String renders the signature in hex.
func (s StateSig) String() string { return fmt.Sprintf("%016x-%016x", s[0], s[1]) }

// splitmix64 is the splitmix64 finalizer, used to decorrelate the
// second signature stream from the first.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// digestState feeds the canonical state encoding — shared store, mutex
// owners, thread statuses and canonically ordered failures — to mix,
// one word at a time.
func (m *Machine) digestState(mix func(uint64)) {
	for _, v := range m.store {
		mix(uint64(v))
	}
	for _, o := range m.owner {
		mix(uint64(uint32(o)))
	}
	for i := range m.chans {
		ch := &m.chans[i]
		mix(uint64(uint32(ch.count)))
		if ch.closed {
			mix(1)
		} else {
			mix(0)
		}
		// Head-normalized: FIFO order from the ring head, so equal
		// logical contents digest equally wherever the ring starts.
		for k := int32(0); k < ch.count; k++ {
			mix(uint64(ch.buf[(ch.head+k)%int32(len(ch.buf))]))
		}
	}
	for _, s := range m.status {
		mix(uint64(s))
	}
	mix(uint64(len(m.failures)))
	for _, f := range m.sortedFailures() {
		mix(uint64(uint32(f.Thread)))
		mix(uint64(uint32(f.Index)))
		mix(uint64(f.Kind))
		for i := 0; i < len(f.Msg); i++ {
			mix(uint64(f.Msg[i]))
		}
	}
}

// StateSig digests the current machine state into 128 bits without
// allocating.
func (m *Machine) StateSig() StateSig {
	const (
		offset1 = 14695981039346656037
		offset2 = 0x6c62272e07bb0142
		prime   = 1099511628211
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	m.digestState(func(x uint64) {
		y := splitmix64(x)
		for i := 0; i < 8; i++ {
			h1 = (h1 ^ (x & 0xff)) * prime
			h2 = (h2 ^ (y & 0xff)) * prime
			x >>= 8
			y >>= 8
		}
	})
	return StateSig{h1, h2}
}
