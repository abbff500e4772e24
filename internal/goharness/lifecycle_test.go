package goharness

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/model"
)

// lifecycleProgram has a body for every way a thread can leave an
// execution: t1 panics (with an empty message on one branch, so the
// machine falls back to the panic code), t2 calls runtime.Goexit, t0
// defers an Unlock, t3 swallows the abort with its own recover and
// returns, and t0 and t3 lock a and b in opposite orders, so some
// schedules deadlock. t4 is spawned only on some schedules, so a
// thread slot can stay unused for a whole execution, and t5's send
// panics when t2 closed the channel before it, which kills t5
// mid-body.
func lifecycleProgram() *Program {
	p := New("lifecycle")
	x, y, z := p.Var("x"), p.Var("y"), p.Var("z")
	a, b := p.Mutex("a"), p.Mutex("b")
	c := p.Chan("c", 1)
	var t1, t2, t3, t4, t5 ThreadRef
	p.Thread(func(g *G) {
		g.Spawn(t2)
		g.Spawn(t3)
		g.Spawn(t5)
		g.Spawn(t1)
		g.Lock(a)
		defer g.Unlock(a)
		g.Lock(b)
		g.Write(x, g.Read(x)+1)
		g.Unlock(b)
	})
	t1 = p.Thread(func(g *G) {
		v := g.Read(x)
		switch v {
		case 0:
			g.Spawn(t4)
		case 1:
			panic("")
		case 2:
			panic(fmt.Sprintf("boom %d", v))
		}
		g.Write(y, v)
	})
	t2 = p.Thread(func(g *G) {
		g.Write(y, 1)
		if g.Read(x) == 0 {
			g.Close(c)
			runtime.Goexit()
		}
		g.Write(x, 2)
	})
	t3 = p.Thread(func(g *G) {
		defer func() { _ = recover() }()
		g.Lock(b)
		g.Lock(a)
		g.Write(z, 2)
		g.Unlock(a)
		g.Unlock(b)
	})
	t4 = p.Thread(func(g *G) {
		g.Lock(a)
		g.Write(z, 3)
		g.Unlock(a)
	})
	t5 = p.Thread(func(g *G) {
		g.Send(c, 1)
		g.Write(z, 5)
	})
	return p
}

// forwardOnly hides every optional coroutine interface except Abort,
// as a tracing wrapper that forwards only what it knows about does.
type forwardOnly struct{ *Program }

type forwardCoroutine struct{ inner model.Coroutine }

func (s forwardOnly) Start(t event.ThreadID) model.Coroutine {
	return forwardCoroutine{s.Program.Start(t)}
}

func (c forwardCoroutine) Peek() (event.Op, bool) { return c.inner.Peek() }
func (c forwardCoroutine) Resume(r int64)         { c.inner.Resume(r) }
func (c forwardCoroutine) Abort()                 { c.inner.(model.Abortable).Abort() }

// lifecycleWalks runs n seeded random walks of src on one machine,
// resetting it between walks. After every walk the machine must match
// a fresh machine that replays the same schedule. It reports how many
// walks deadlocked and panicked, so callers can check every ending
// was reached.
func lifecycleWalks(t *testing.T, src model.Source, n int) (deadlocks, panics int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := model.NewMachine(src)
	defer m.Abort()
	var enabled, choices []event.ThreadID
	for walk := 0; walk < n; walk++ {
		if walk > 0 {
			m.Reset()
		}
		choices = choices[:0]
		for len(choices) < 64 {
			if enabled = m.EnabledThreads(enabled); len(enabled) == 0 {
				break
			}
			th := enabled[rng.Intn(len(enabled))]
			m.Step(th)
			choices = append(choices, th)
		}
		fresh := model.NewMachine(src)
		for _, th := range choices {
			fresh.Step(th)
		}
		if m.StateKey() != fresh.StateKey() || m.Deadlocked() != fresh.Deadlocked() ||
			!reflect.DeepEqual(m.Failures(), fresh.Failures()) {
			fresh.Abort()
			t.Fatalf("walk %d %v: state %s failures %v, fresh machine %s failures %v",
				walk, choices, m.StateKey(), m.Failures(), fresh.StateKey(), fresh.Failures())
		}
		for th := range src.NumThreads() {
			gp, gok := m.Pending(event.ThreadID(th))
			wp, wok := fresh.Pending(event.ThreadID(th))
			if gp != wp || gok != wok {
				fresh.Abort()
				t.Fatalf("walk %d %v: t%d pending %v %v, fresh machine %v %v", walk, choices, th, gp, gok, wp, wok)
			}
		}
		fresh.Abort()
		if m.Deadlocked() {
			deadlocks++
		}
		for _, f := range m.Failures() {
			if f.Kind == model.FailPanic {
				panics++
				break
			}
		}
	}
	return deadlocks, panics
}

// TestLifecycleResetWalks: one machine reset across 1,000 random walks
// behaves exactly like a fresh machine per walk, whatever the previous
// walk left behind — a panicked, exited, deadlocked or swallowing body
// — and releases every thread body when it is aborted.
func TestLifecycleResetWalks(t *testing.T) {
	before := runtime.NumGoroutine()
	deadlocks, panics := lifecycleWalks(t, lifecycleProgram(), 1000)
	if deadlocks == 0 || panics == 0 {
		t.Fatalf("walks reached %d deadlocks and %d panics; the program should reach both", deadlocks, panics)
	}
	waitGoroutines(t, before)
}

// TestLifecycleForwardingWrapperLeaks: a wrapper that forwards only
// Peek, Resume and Abort sees the same executions and leaks no thread
// body across resets.
func TestLifecycleForwardingWrapperLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	lifecycleWalks(t, forwardOnly{lifecycleProgram()}, 300)
	waitGoroutines(t, before)
}

// TestLifecyclePanicMessages: every panic failure carries the message
// of the panic its own walk raised — the recovered value, or the code
// fallback for an empty one — never one left over from an earlier
// walk.
func TestLifecyclePanicMessages(t *testing.T) {
	p := lifecycleProgram()
	m := model.NewMachine(p)
	defer m.Abort()
	// t1 reads x = 2 (t0 incremented it, then t2 overwrote it), then
	// x = 1 (t0 incremented it): the messages alternate across resets.
	schedules := map[string][]event.ThreadID{
		"panic: boom 2": {0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 1, 1},
		"panic: code 0": {0, 0, 0, 0, 0, 0, 0, 0, 1, 1},
	}
	for i := 0; i < 20; i++ {
		want := "panic: boom 2"
		if i%2 == 1 {
			want = "panic: code 0"
		}
		if i > 0 {
			m.Reset()
		}
		for _, th := range schedules[want] {
			m.Step(th)
		}
		fs := m.Failures()
		if len(fs) != 1 || fs[0].Kind != model.FailPanic || fs[0].Msg != want {
			t.Fatalf("run %d: failures %v, want one %q", i, fs, want)
		}
	}
}

// countStarts counts Source.Start calls and hands out the coroutines
// unwrapped, so the machine sees every optional interface.
type countStarts struct {
	*Program
	n int
}

func (s *countStarts) Start(t event.ThreadID) model.Coroutine {
	s.n++
	return s.Program.Start(t)
}

// TestLifecycleResetReusesWorkers: without the watchdog a machine
// starts each thread's worker once and rewinds it on every Reset,
// whether the last execution finished the thread or left it blocked;
// with the watchdog armed it starts one per thread per execution.
func TestLifecycleResetReusesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, stall := range []time.Duration{0, 10 * time.Second} {
		src := &countStarts{Program: abbaProgram()}
		m := model.NewMachineCfg(src, model.MachineConfig{StallTimeout: stall})
		for i := 0; i < 50; i++ {
			if i > 0 {
				m.Reset()
			}
			schedule := []event.ThreadID{0, 1} // deadlocks
			if i%2 == 1 {
				schedule = []event.ThreadID{0, 0, 0, 0, 1, 1, 1, 1}
			}
			for _, th := range schedule {
				m.Step(th)
			}
			if m.Deadlocked() != (i%2 == 0) {
				t.Fatalf("stall %v run %d: deadlocked=%v", stall, i, m.Deadlocked())
			}
		}
		m.Abort()
		want := 2
		if stall > 0 {
			want = 2 * 50
		}
		if src.n != want {
			t.Errorf("stall %v: %d starts over 50 executions, want %d", stall, src.n, want)
		}
	}
	waitGoroutines(t, before)
}
