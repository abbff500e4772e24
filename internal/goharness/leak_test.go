package goharness

import (
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/exec"
)

// abbaProgram: t0 locks a then b, t1 locks b then a — the schedule
// [0, 1] deadlocks with both bodies parked at their second Lock.
func abbaProgram() *Program {
	p := New("abba").AutoStart()
	a, b := p.Mutex("a"), p.Mutex("b")
	p.Thread(func(g *G) {
		g.Lock(a)
		g.Lock(b)
		g.Unlock(b)
		g.Unlock(a)
	})
	p.Thread(func(g *G) {
		g.Lock(b)
		g.Lock(a)
		g.Unlock(a)
		g.Unlock(b)
	})
	return p
}

// TestOneShotDeadlockLeaksNothing: an exec.Replay or exec.Run one-shot
// that ends in a deadlock still has live thread bodies; the one-shot
// releases them, so repeated runs leave no goroutine behind.
func TestOneShotDeadlockLeaksNothing(t *testing.T) {
	p := abbaProgram()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		out := exec.Replay(p, []event.ThreadID{0, 1}, exec.Options{})
		if !out.Deadlock {
			t.Fatalf("run %d: no deadlock (trace %v)", i, out.Trace)
		}
		if out := exec.Run(p, &exec.Prefix{Choices: []event.ThreadID{0, 1}}, exec.Options{}); !out.Deadlock {
			t.Fatalf("run %d: exec.Run did not deadlock", i)
		}
	}
	waitGoroutines(t, before)
}

// TestRunnerCloseLeaksNothing: a Runner reused across runs keeps its
// machine between them; Close releases the bodies the last run left
// live.
func TestRunnerCloseLeaksNothing(t *testing.T) {
	p := abbaProgram()
	before := runtime.NumGoroutine()
	r := exec.NewRunner(p, exec.Options{})
	for i := 0; i < 10; i++ {
		choices := []event.ThreadID{0, 1}
		if i%2 == 1 {
			choices = []event.ThreadID{0, 0, 0, 0, 1}
		}
		out := r.Replay(choices)
		if out.Deadlock != (i%2 == 0) {
			t.Fatalf("run %d: deadlock=%v", i, out.Deadlock)
		}
	}
	r.Close()
	waitGoroutines(t, before)
}
