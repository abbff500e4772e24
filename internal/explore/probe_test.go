package explore

import (
	"context"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/goharness"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// hostileSpinner builds a goharness program whose deterministic probe
// schedule (always the lowest-numbered enabled thread) reaches a
// thread spinning forever in local computation: t0 writes x, t1 reads
// it and, having observed the write, never announces again. Without
// ctx awareness the PCT probe pays the full wall-clock stall timeout
// on it before a single walk starts.
func hostileSpinner() *goharness.Program {
	p := goharness.New("hostile-spinner").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *goharness.G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *goharness.G) {
		if g.Read(x) == 1 {
			for {
				time.Sleep(time.Millisecond)
			}
		}
		g.Write(done, 1)
	})
	return p
}

// TestEstimateEventsCancelledCtx is the regression test for the PCT
// probe ignoring Options.Ctx: with the exploration already cancelled,
// the probe must return immediately — before the hostile program's
// machine is even built — instead of paying the stall timeout. The
// generous timeout here is the tripwire: the old probe would sit in
// PeekTimeout for all of it.
func TestEstimateEventsCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mcfg := model.MachineConfig{StallTimeout: 30 * time.Second, Hints: model.NewDivergeHints()}
	start := time.Now()
	k := estimateEvents(ctx, hostileSpinner(), mcfg, 2000)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled probe took %v — it paid the stall timeout", elapsed)
	}
	if k < 1 {
		t.Fatalf("estimate %d, want >= 1", k)
	}
}

// cancelAfterSource wraps a Source and fires cancel after the wrapped
// program has resumed n visible operations — cancellation arriving
// mid-probe, deterministically.
type cancelAfterSource struct {
	model.Source
	n      *int
	after  int
	cancel context.CancelFunc
}

func (s *cancelAfterSource) Start(t event.ThreadID) model.Coroutine {
	return &cancelAfterCor{inner: s.Source.Start(t), src: s}
}

type cancelAfterCor struct {
	inner model.Coroutine
	src   *cancelAfterSource
}

func (c *cancelAfterCor) Peek() (event.Op, bool) { return c.inner.Peek() }

func (c *cancelAfterCor) Resume(result int64) {
	c.inner.Resume(result)
	*c.src.n++
	if *c.src.n == c.src.after {
		c.src.cancel()
	}
}

// TestEstimateEventsMidProbeCancellation: a context cancelled between
// probe steps cuts the measurement short at the next iteration instead
// of running the schedule to its end.
func TestEstimateEventsMidProbeCancellation(t *testing.T) {
	full := estimateEvents(nil, curatedSharedCounter(), model.MachineConfig{}, 2000)
	if full < 4 {
		t.Fatalf("probe program too short to observe early exit: %d events", full)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := &cancelAfterSource{Source: curatedSharedCounter(), n: &n, after: 2, cancel: cancel}
	k := estimateEvents(ctx, src, model.MachineConfig{}, 2000)
	if k >= full {
		t.Errorf("mid-probe cancellation ignored: estimate %d, full schedule %d", k, full)
	}
	if k < 1 {
		t.Errorf("estimate %d, want >= 1", k)
	}
}

// panicSource panics the moment the machine starts its first thread —
// a hostile Source failing outside any thread body, where the
// machine's panic-as-violation containment cannot catch it.
type panicSource struct {
	model.Source
}

func (panicSource) Start(event.ThreadID) model.Coroutine {
	panic("hostile source")
}

// TestEstimateEventsPanicSafe: a probe machine that panics yields the
// clamped minimum estimate instead of crashing PCT before sampling
// starts; exploration proper then surfaces the fault under its own
// containment.
func TestEstimateEventsPanicSafe(t *testing.T) {
	k := estimateEvents(nil, panicSource{Source: curatedSharedCounter()}, model.MachineConfig{}, 2000)
	if k != 1 {
		t.Errorf("panicking probe estimated %d, want the clamped 1", k)
	}
}

// TestEstimateEventsHostileCorpus runs the probe across the committed
// hostile shapes (deterministic divergence, panic-as-violation) and
// checks it always returns a usable estimate without hanging: the
// divergence watchdog semantics and the panic containment the machine
// already provides keep covering the probe after the ctx rework.
func TestEstimateEventsHostileCorpus(t *testing.T) {
	for _, src := range []*progdsl.Program{divergeRacy(), panicRacy(), curatedDeadlockable()} {
		k := estimateEvents(nil, src, model.MachineConfig{}, 2000)
		if k < 1 || k > 2000 {
			t.Errorf("%s: estimate %d out of range", src.Name(), k)
		}
	}
}

// TestPCTHostileCancelled: end to end, a cancelled sampler run on the
// hostile program returns promptly with Interrupted set — PCT's probe
// does not stall before the engine can notice the cancellation, and
// no sampler starts a walk that would pay the stall timeout.
func TestPCTHostileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{NewPCT(7, 3), NewRandomWalk(1), NewPOS(5)} {
		start := time.Now()
		res := eng.Explore(hostileSpinner(), Options{
			ScheduleLimit: 50,
			MaxSteps:      200,
			StallTimeout:  30 * time.Second,
			Ctx:           ctx,
		})
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancelled %s run took %v — a stall timeout was paid", eng.Name(), elapsed)
		}
		if !res.Interrupted {
			t.Errorf("cancelled %s run not marked Interrupted: %+v", eng.Name(), res)
		}
	}
}
