package goharness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/model"
)

// panicProgram: t1 panics iff it observes t0's store.
func panicProgram() *Program {
	p := New("racy-panic").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *G) {
		if g.Read(x) == 1 {
			panic("boom")
		}
		g.Write(done, 1)
	})
	return p
}

// divergeProgram: t1 spins forever iff it observes t0's store.
func divergeProgram() *Program {
	p := New("racy-diverge").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *G) {
		if g.Read(x) == 1 {
			for {
				time.Sleep(time.Millisecond)
			}
		}
		g.Write(done, 1)
	})
	return p
}

// TestPanicBecomesViolation: a panicking thread body is captured at
// the harness boundary and surfaces as a panic-kind event and a
// FailPanic failure — a finding, never a process crash.
func TestPanicBecomesViolation(t *testing.T) {
	p := panicProgram()
	// Schedule t0 first so t1 observes the store and panics.
	out := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{})
	if got := out.ViolationKind(); got != "panic" {
		t.Fatalf("ViolationKind = %q, want %q (failures: %v)", got, "panic", out.Failures)
	}
	if len(out.Failures) != 1 || out.Failures[0].Kind != model.FailPanic {
		t.Fatalf("failures = %+v, want one FailPanic", out.Failures)
	}
	if !strings.Contains(out.Failures[0].Msg, "boom") {
		t.Fatalf("failure message %q does not carry the panic value", out.Failures[0].Msg)
	}
	last := out.Trace[len(out.Trace)-1]
	if last.Kind != event.KindPanic || last.Thread != 1 {
		t.Fatalf("last trace event = %+v, want t1 panic", last)
	}

	// The schedule where t1 reads first terminates without panicking
	// (the read/write race on x is still reported, as it should be).
	clean := exec.Replay(p, []event.ThreadID{1, 1, 0}, exec.Options{})
	if len(clean.Failures) > 0 || clean.Deadlock {
		t.Fatalf("read-first schedule failed: %+v deadlock=%v", clean.Failures, clean.Deadlock)
	}
}

// TestPanicMessageDeterministic: the recovered panic value renders
// identically across replays — it is digested into state signatures.
func TestPanicMessageDeterministic(t *testing.T) {
	p := panicProgram()
	first := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{})
	for i := 0; i < 3; i++ {
		again := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{})
		if again.Failures[0].Msg != first.Failures[0].Msg {
			t.Fatalf("replay %d: panic message %q != %q", i, again.Failures[0].Msg, first.Failures[0].Msg)
		}
		if again.StateKey != first.StateKey {
			t.Fatalf("replay %d: state key diverged", i)
		}
	}
}

// TestStallTimeoutFencesDivergingThread: an infinite local loop is
// fenced as diverged within the stall timeout; the execution reports
// divergence, not deadlock or violation.
func TestStallTimeoutFencesDivergingThread(t *testing.T) {
	p := divergeProgram()
	start := time.Now()
	out := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{StallTimeout: 30 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fencing took %v, far beyond the stall timeout", elapsed)
	}
	if !out.Diverged || out.DivergedThread != 1 {
		t.Fatalf("Diverged=%v DivergedThread=%d, want t1 fenced", out.Diverged, out.DivergedThread)
	}
	// The program's read/write race on x is a real (and separate)
	// finding; divergence itself must not classify as deadlock or a
	// failure.
	if out.Deadlock || len(out.Failures) > 0 {
		t.Fatalf("divergence misclassified: deadlock=%v failures=%v", out.Deadlock, out.Failures)
	}
}

// TestPeekTimeoutDirect pins the coroutine-level watchdog contract:
// after the timeout fires, the coroutine keeps announcing the
// divergence sentinel and aborts become no-ops.
func TestPeekTimeoutDirect(t *testing.T) {
	p := New("spin").AutoStart()
	p.Var("x")
	p.Thread(func(g *G) {
		for {
			time.Sleep(time.Millisecond)
		}
	})
	c := p.Start(0).(*coroutine)
	op, ok := c.PeekTimeout(20 * time.Millisecond)
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("PeekTimeout = (%+v, %v), want diverge sentinel", op, ok)
	}
	// Idempotent: the fenced coroutine keeps reporting divergence.
	op, ok = c.PeekTimeout(time.Millisecond)
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("second PeekTimeout = (%+v, %v), want diverge sentinel", op, ok)
	}
	op, ok = c.Peek()
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("Peek after fence = (%+v, %v), want diverge sentinel", op, ok)
	}
	c.Abort()                            // must not hang or panic
	c.AbortTimeout(time.Millisecond * 5) // likewise
}

// TestAbortTimeoutAbandonsStuckBody: a body that never reaches its
// next scheduling point cannot hang Abort when the timed variant is
// used.
func TestAbortTimeoutAbandonsStuckBody(t *testing.T) {
	p := New("stuck").AutoStart()
	x := p.Var("x")
	p.Thread(func(g *G) {
		g.Read(x)
		for {
			time.Sleep(time.Millisecond)
		}
	})
	c := p.Start(0).(*coroutine)
	if op, ok := c.Peek(); !ok || op.Kind != event.KindRead {
		t.Fatalf("Peek = (%+v, %v), want read", op, ok)
	}
	c.Resume(0) // body now spins forever before its next announcement
	done := make(chan struct{})
	go func() {
		c.AbortTimeout(20 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AbortTimeout hung on a stuck body")
	}
}

// goexitProgram: t0 writes x and then calls runtime.Goexit (as a
// t.FailNow inside a body would); t1 writes y.
func goexitProgram() *Program {
	p := New("goexit").AutoStart()
	x := p.Var("x")
	y := p.Var("y")
	p.Thread(func(g *G) {
		g.Write(x, 1)
		runtime.Goexit()
		g.Write(x, 2) // unreachable
	})
	p.Thread(func(g *G) {
		g.Write(y, 1)
	})
	return p
}

// TestGoexitTerminatesThread pins the runtime.Goexit contract: a body
// that calls Goexit after a visible operation just terminates its
// thread. The replay returns an outcome with no failure, with and
// without the watchdog, and 100 replays leave no goroutine behind.
//
// One case stays unsupported: a body that calls Goexit while it is
// being aborted with the watchdog off (say, a deferred recover that
// turns the abort into a Goexit). The untimed Abort of a body that
// swallows the abort hangs the same way; WithStallTimeout covers both
// (TestGoexitDuringTimedAbort).
func TestGoexitTerminatesThread(t *testing.T) {
	p := goexitProgram()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		opt := exec.Options{}
		if i%2 == 1 {
			opt.StallTimeout = 10 * time.Second
		}
		out := exec.Replay(p, []event.ThreadID{0, 0, 1}, opt)
		if len(out.Failures) > 0 || out.Deadlock || out.Diverged {
			t.Fatalf("run %d: failures=%v deadlock=%v diverged=%v", i, out.Failures, out.Deadlock, out.Diverged)
		}
		if len(out.Trace) != 2 || out.Trace[0].Thread != 0 || out.Trace[1].Thread != 1 {
			t.Fatalf("run %d: trace %v, want t0's write then t1's", i, out.Trace)
		}
	}
	waitGoroutines(t, before)
}

// TestGoexitDuringTimedAbort: a body that turns the abort into a
// runtime.Goexit is released by AbortTimeout without waiting out the
// budget, and its goroutines exit.
func TestGoexitDuringTimedAbort(t *testing.T) {
	p := New("goexit-abort").AutoStart()
	x := p.Var("x")
	p.Thread(func(g *G) {
		defer func() {
			if recover() != nil {
				runtime.Goexit()
			}
		}()
		g.Read(x)
	})
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c := p.Start(0).(*coroutine)
		if op, ok := c.Peek(); !ok || op.Kind != event.KindRead {
			t.Fatalf("Peek = (%+v, %v), want read", op, ok)
		}
		start := time.Now()
		c.AbortTimeout(10 * time.Second)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("AbortTimeout took %v", elapsed)
		}
		if c.diverged {
			t.Fatal("a body that exits during the abort was fenced as diverged")
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails t unless the goroutine count falls back to
// before within two seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}
