package campaign

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/explore"
	"repro/internal/model"
)

// chaosEngine is the fault injector behind this package's "chaos:mode"
// cells: it misbehaves on purpose so the runner's containment (panic
// recovery, cell deadlines, abandoned goroutines) can be tested
// without a hostile program. It is registered only in this package's
// test binary, so no search-engine listing shows it.
type chaosEngine struct{ mode string }

func init() {
	engines.Register(engines.Info{
		Name: "chaos", Usage: "chaos:mode",
		Summary: "test-only fault injection: mode panic, stall or hang",
		Build: func(argv []string) (explore.Engine, error) {
			var e chaosEngine
			if len(argv) > 0 {
				e.mode = argv[0]
			}
			switch e.mode {
			case "panic", "stall", "hang":
				return e, nil
			}
			return nil, fmt.Errorf("chaos mode %q (want panic, stall or hang)", e.mode)
		},
	})
}

// Name implements explore.Engine.
func (e chaosEngine) Name() string { return "chaos" }

// Explore implements explore.Engine by misbehaving according to the
// mode: "panic" panics deterministically; "stall" blocks until
// Options.Ctx is cancelled and reports an interrupted empty result (a
// cell that consumes its whole deadline but shuts down cleanly);
// "hang" blocks forever, ignoring cancellation (a cell whose goroutine
// the runner's watchdog must abandon).
func (e chaosEngine) Explore(src model.Source, opt explore.Options) explore.Result {
	switch e.mode {
	case "panic":
		panic(fmt.Sprintf("chaos: injected fault in %s", src.Name()))
	case "stall":
		if opt.Ctx != nil {
			<-opt.Ctx.Done()
		}
		return explore.Result{Program: src.Name(), Engine: e.Name(), Interrupted: true}
	}
	<-make(chan struct{})
	return explore.Result{}
}

// TestChaosEngineModes pins the fault injector's contract, which the
// containment, reuse and observe tests rely on: an unknown or missing
// mode is a build error, panic mode panics with a value naming chaos,
// and stall mode returns an interrupted result once its context is
// cancelled.
func TestChaosEngineModes(t *testing.T) {
	for _, spec := range []EngineSpec{"chaos", "chaos:nonsense"} {
		if _, err := spec.Build(); err == nil {
			t.Errorf("%s built", spec)
		}
	}
	b, ok := bench.ByName("counter-racy-2x2")
	if !ok {
		t.Fatal("counter-racy-2x2 missing from the corpus")
	}
	build := func(spec EngineSpec) explore.Engine {
		t.Helper()
		e, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "chaos") {
				t.Fatalf("chaos:panic recovered %v, want a panic naming chaos", r)
			}
		}()
		build("chaos:panic").Explore(b.Program, explore.Options{})
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := build("chaos:stall").Explore(b.Program, explore.Options{Ctx: ctx}); !res.Interrupted {
		t.Fatalf("chaos:stall with a cancelled ctx: %+v, want Interrupted", res)
	}
}
