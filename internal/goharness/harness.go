// Package goharness runs real Go closures under the systematic
// concurrency tester. Each thread of the program under test is a
// runtime coroutine (iter.Pull): every visible operation (shared reads
// and writes, lock/unlock, spawn/join, channel operations, assertions)
// yields to the scheduler, whose next Peek switches back into the body
// once the operation is granted. Exactly one body runs at a time, so
// the interleaving of visible operations — the only interleaving that
// matters — is fully controlled and deterministic.
//
// A panicking body announces the panic as its final visible
// operation; one that calls runtime.Goexit terminates. With the stall
// watchdog armed, switches run on a helper goroutine under a timer,
// and a body that never switches back is abandoned with that helper
// parked. Unsupported: a body that calls runtime.Goexit while being
// aborted with the watchdog off, just as an untimed abort of a body
// that swallows the abort hangs.
//
// This is the Go analogue of LAZYLOCKS' Java bytecode instrumentation:
// the program text stays ordinary Go, and the harness supplies the
// scheduling points.
//
// Thread bodies must be deterministic: all cross-thread communication
// must go through the harness (G.Read/G.Write/G.Lock/...), and bodies
// must not consult ambient nondeterminism (time, maps iteration order,
// package-level mutable state shared across executions).
package goharness

import (
	"fmt"
	"iter"
	"time"

	"repro/internal/event"
	"repro/internal/model"
)

// Var names a shared variable of a harness program.
type Var int32

// Mutex names a mutex of a harness program.
type Mutex int32

// Chan names a channel of a harness program.
type Chan int32

// ThreadRef names a declared thread.
type ThreadRef event.ThreadID

// Body is the code of one thread.
type Body func(g *G)

// Program is a program under test built from Go closures. It
// implements model.Source; build it with New, Var, Mutex and Thread,
// then hand it to an exploration engine.
type Program struct {
	name      string
	varNames  []string
	muNames   []string
	chanNames []string
	chanCaps  []int32
	bodies    []Body
	init      map[Var]int64
	autoStart bool
}

var (
	_ model.Source        = (*Program)(nil)
	_ model.InitStorer    = (*Program)(nil)
	_ model.ChannelSource = (*Program)(nil)
)

// New returns an empty harness program.
func New(name string) *Program {
	return &Program{name: name, init: map[Var]int64{}}
}

// AutoStart makes all declared threads runnable initially (no explicit
// Spawn needed).
func (p *Program) AutoStart() *Program {
	p.autoStart = true
	return p
}

// Var declares a shared variable initialised to zero.
func (p *Program) Var(name string) Var {
	p.varNames = append(p.varNames, name)
	return Var(len(p.varNames) - 1)
}

// VarInit declares a shared variable with an initial value.
func (p *Program) VarInit(name string, x int64) Var {
	v := p.Var(name)
	p.init[v] = x
	return v
}

// Mutex declares a mutex.
func (p *Program) Mutex(name string) Mutex {
	p.muNames = append(p.muNames, name)
	return Mutex(len(p.muNames) - 1)
}

// Chan declares a channel with the given buffer capacity; 0 means
// unbuffered (rendezvous).
func (p *Program) Chan(name string, capacity int) Chan {
	if capacity < 0 {
		panic(fmt.Sprintf("goharness: Chan %q capacity %d", name, capacity))
	}
	p.chanNames = append(p.chanNames, name)
	p.chanCaps = append(p.chanCaps, int32(capacity))
	return Chan(len(p.chanNames) - 1)
}

// Thread declares a thread running body. The first thread declared is
// the initial thread.
func (p *Program) Thread(body Body) ThreadRef {
	p.bodies = append(p.bodies, body)
	return ThreadRef(len(p.bodies) - 1)
}

// Name implements model.Source.
func (p *Program) Name() string { return p.name }

// NumThreads implements model.Source.
func (p *Program) NumThreads() int { return len(p.bodies) }

// NumVars implements model.Source.
func (p *Program) NumVars() int { return len(p.varNames) }

// NumMutexes implements model.Source.
func (p *Program) NumMutexes() int { return len(p.muNames) }

// NumChannels implements model.ChannelSource.
func (p *Program) NumChannels() int { return len(p.chanNames) }

// ChannelCap implements model.ChannelSource.
func (p *Program) ChannelCap(c int32) int { return int(p.chanCaps[c]) }

// InitStore implements model.InitStorer.
func (p *Program) InitStore(store []int64) {
	for v, x := range p.init {
		store[v] = x
	}
}

// InitiallyRunning implements model.Source.
func (p *Program) InitiallyRunning() []event.ThreadID {
	if !p.autoStart {
		return []event.ThreadID{0}
	}
	out := make([]event.ThreadID, len(p.bodies))
	for i := range out {
		out[i] = event.ThreadID(i)
	}
	return out
}

// Start implements model.Source: it wraps the thread body in a
// runtime coroutine (iter.Pull) that has not run yet; the first Peek
// runs it to its first visible operation.
func (p *Program) Start(t event.ThreadID) model.Coroutine {
	c := &coroutine{}
	body := p.bodies[t]
	c.next, c.stop = iter.Pull(func(yield func(event.Op) bool) {
		returned := false
		defer func() {
			// Swallow the harness's own abort signal; announce a
			// genuine panic as the thread's final visible
			// operation instead of crashing the process — a
			// crashing schedule is a finding, not a harness
			// failure. A body that neither returned nor panicked
			// called runtime.Goexit: announce it before the Goexit
			// completes, so settle can finish it elsewhere.
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					c.panicMsg = fmt.Sprint(r)
					yield(event.Op{Kind: event.KindPanic})
				}
			} else if !returned {
				c.exited = true
				yield(event.Op{})
			}
		}()
		body(&G{c: c, yield: yield, id: t})
		returned = true
	})
	return c
}

type abortSignal struct{}

// coroutine adapts an iter.Pull coroutine to the model.Coroutine
// peek/resume protocol. Peek is the only switch into the body: it
// runs the body to its next visible operation. Resume stores the
// granted value, which the body reads when the next Peek switches
// back into it.
type coroutine struct {
	next    func() (event.Op, bool)
	stop    func()
	pending event.Op
	val     int64
	have    bool
	closed  bool
	// diverged is set by the stall watchdog (PeekTimeout/AbortTimeout
	// giving up): the body is stuck in local computation and is
	// abandoned — never switched to, never waited for again. The
	// write happens on the scheduler side, which is the only side
	// that ever reads it, so no synchronisation is needed.
	diverged bool
	// exited is set by a body that called runtime.Goexit, just before
	// its final switch back to the scheduler.
	exited bool
	// panicMsg is the rendered panic value of a body that panicked,
	// written before the KindPanic announcement (the coroutine
	// switch orders it before the scheduler reads it).
	panicMsg string
}

var (
	_ model.Abortable     = (*coroutine)(nil)
	_ model.TimedPeeker   = (*coroutine)(nil)
	_ model.TimedAborter  = (*coroutine)(nil)
	_ model.PanicMessager = (*coroutine)(nil)
)

// PanicMessage implements model.PanicMessager.
func (c *coroutine) PanicMessage() string { return c.panicMsg }

// Peek implements model.Coroutine. It runs the thread body until it
// announces its next visible operation or terminates; the wait is
// bounded by the thread's local computation, never by another thread.
func (c *coroutine) Peek() (event.Op, bool) {
	if c.closed {
		return event.Op{}, false
	}
	if c.diverged {
		return event.Op{Kind: event.KindDiverge}, true
	}
	if c.have {
		return c.pending, true
	}
	return c.settle(c.next())
}

// settle records what a switch into the body announced. A body that
// called runtime.Goexit is terminated; its Goexit completes on a
// throwaway goroutine, since iter.Pull passes it on to whoever
// finishes the coroutine.
func (c *coroutine) settle(op event.Op, ok bool) (event.Op, bool) {
	if !ok || c.exited {
		c.closed = true
		if ok {
			go c.stop()
		}
		return event.Op{}, false
	}
	c.pending = op
	c.have = true
	return op, true
}

// PeekTimeout implements model.TimedPeeker: Peek, but a body that
// stays silent for d is declared diverged and the sentinel divergence
// op is announced in its stead.
func (c *coroutine) PeekTimeout(d time.Duration) (event.Op, bool) {
	if c.closed || c.diverged || c.have {
		return c.Peek()
	}
	var op event.Op
	var ok bool
	if !c.watch(d, func() { op, ok = c.next() }) {
		return event.Op{Kind: event.KindDiverge}, true
	}
	return c.settle(op, ok)
}

// Resume implements model.Coroutine.
func (c *coroutine) Resume(result int64) {
	if !c.have {
		panic("goharness: Resume without pending operation")
	}
	c.have = false
	c.val = result
}

// Abort implements model.Abortable: it unwinds the thread body at its
// current visible operation and returns once the body has exited, so
// abandoned executions leak nothing.
func (c *coroutine) Abort() {
	if c.closed || c.diverged {
		return
	}
	c.have = false
	c.closed = true
	c.stop()
}

// AbortTimeout implements model.TimedAborter: Abort with d of
// wall-clock budget. A body that swallows the abort with its own
// recover and never returns is fenced as diverged and abandoned
// instead of hanging the scheduler.
func (c *coroutine) AbortTimeout(d time.Duration) {
	if c.closed || c.diverged {
		return
	}
	c.have = false
	c.closed = c.watch(d, c.stop)
}

// watch runs a switch into the body on a helper goroutine and reports
// whether it came back within d. If not, the body is abandoned
// mid-computation (it holds no harness resources), the coroutine is
// fenced as diverged, and the helper stays parked in the switch.
func (c *coroutine) watch(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done) // also when f ends in the body's runtime.Goexit
		f()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		c.diverged = true
		return false
	}
}

// G is the handle a thread body uses for all visible operations. Each
// one is a switch back to the scheduler, so a body must call G only
// from its own goroutine.
type G struct {
	c     *coroutine
	yield func(event.Op) bool
	id    event.ThreadID
}

// ID returns the thread's identifier.
func (g *G) ID() event.ThreadID { return g.id }

func (g *G) visible(op event.Op) int64 {
	if !g.yield(op) {
		panic(abortSignal{})
	}
	return g.c.val
}

// Read returns the current value of v (a visible operation).
func (g *G) Read(v Var) int64 {
	return g.visible(event.Op{Kind: event.KindRead, Obj: int32(v)})
}

// Write stores x into v (a visible operation).
func (g *G) Write(v Var, x int64) {
	g.visible(event.Op{Kind: event.KindWrite, Obj: int32(v), Val: x})
}

// Lock acquires m, blocking while another thread holds it.
func (g *G) Lock(m Mutex) {
	g.visible(event.Op{Kind: event.KindLock, Obj: int32(m)})
}

// Unlock releases m; releasing a mutex the thread does not hold is
// recorded as a failure by the machine.
func (g *G) Unlock(m Mutex) {
	g.visible(event.Op{Kind: event.KindUnlock, Obj: int32(m)})
}

// Spawn starts the declared thread t.
func (g *G) Spawn(t ThreadRef) {
	g.visible(event.Op{Kind: event.KindSpawn, Obj: int32(t)})
}

// Join blocks until thread t has terminated.
func (g *G) Join(t ThreadRef) {
	g.visible(event.Op{Kind: event.KindJoin, Obj: int32(t)})
}

// Send sends x on channel c (a visible operation). It blocks while the
// channel is full — unbuffered: until a receiver is pending — and
// panics if the channel is closed, which the machine records as a
// panic violation and terminates this thread.
func (g *G) Send(c Chan, x int64) {
	g.visible(event.Op{Kind: event.KindSend, Obj: int32(c), Val: x})
}

// Recv receives from channel c (a visible operation), blocking while
// the channel is empty and open. On a closed empty channel it returns
// (0, false); otherwise the drained value and true.
func (g *G) Recv(c Chan) (int64, bool) {
	return event.UnpackRecvResult(g.visible(event.Op{Kind: event.KindRecv, Obj: int32(c)}))
}

// TryRecv is a non-blocking receive — a single-case select with a
// default. It returns (value, true) when a value was ready and
// (0, false) otherwise (including a closed empty channel).
func (g *G) TryRecv(c Chan) (int64, bool) {
	r := g.visible(event.Op{
		Kind: event.KindSelect, Obj: -1,
		Val: event.MakeSelectVal(1<<int32(c), true),
	})
	_, val, ok := event.UnpackSelectResult(r)
	return val, ok
}

// Close closes channel c (a visible operation). Closing an
// already-closed channel panics, like Go.
func (g *G) Close(c Chan) {
	g.visible(event.Op{Kind: event.KindClose, Obj: int32(c)})
}

// Select blocks until one of the case channels is ready (non-empty or
// closed) and receives from it — one visible operation. It returns the
// index into cs of the chosen case, the received value, and the ok
// flag (false when the chosen channel was closed and empty). The
// machine commits deterministically to the lowest-numbered ready
// channel; case nondeterminism is explored through arrival
// interleavings. Case channels must be distinct.
func (g *G) Select(cs ...Chan) (idx int, val int64, ok bool) {
	return g.selectOn(cs, false)
}

// TrySelect is Select with a default case: when no case channel is
// ready it returns idx = -1 immediately instead of blocking.
func (g *G) TrySelect(cs ...Chan) (idx int, val int64, ok bool) {
	return g.selectOn(cs, true)
}

func (g *G) selectOn(cs []Chan, hasDefault bool) (int, int64, bool) {
	if len(cs) == 0 {
		panic("goharness: select with no cases")
	}
	var mask int64
	for _, c := range cs {
		if c < 0 || c >= event.MaxSelectChans {
			panic(fmt.Sprintf("goharness: select case channel c%d out of mask range", c))
		}
		mask |= 1 << int32(c)
	}
	r := g.visible(event.Op{Kind: event.KindSelect, Obj: -1, Val: event.MakeSelectVal(mask, hasDefault)})
	ch, val, ok := event.UnpackSelectResult(r)
	if ch < 0 && hasDefault {
		return -1, 0, false
	}
	for i, c := range cs {
		if int32(c) == ch {
			return i, val, ok
		}
	}
	panic(fmt.Sprintf("goharness: select committed to undeclared case channel c%d", ch))
}

// Assert records ok as a visible assertion; a false value is a safety
// violation the exploration engines report.
func (g *G) Assert(ok bool) {
	v := int64(0)
	if ok {
		v = 1
	}
	g.visible(event.Op{Kind: event.KindAssert, Val: v})
}

// Assertf is Assert with a formatted annotation for local debugging;
// the message is evaluated eagerly but only used when the assertion
// fails.
func (g *G) Assertf(ok bool, format string, args ...any) {
	if !ok {
		// The machine records the failure; the message aids local
		// debugging through the panic path of tests.
		_ = fmt.Sprintf(format, args...)
	}
	g.Assert(ok)
}
