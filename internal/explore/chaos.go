package explore

import (
	"fmt"

	"repro/internal/model"
)

// chaosEngine is the fault-injection engine behind the "chaos" spec:
// it misbehaves on purpose — panicking, stalling until cancelled or
// hanging past cancellation — so the campaign runner's containment
// (panic recovery, cell deadlines, abandoned goroutines) can be
// exercised and tested without a hostile program. With no mode it is
// a plain DFS. It contributes nothing to the default grid.
type chaosEngine struct {
	mode string
}

// Chaos modes; the empty mode injects no fault.
const (
	// ChaosPanic panics deterministically inside Explore.
	ChaosPanic = "panic"
	// ChaosStall blocks until Options.Ctx is cancelled, then reports an
	// interrupted empty result — a cell that consumes its whole
	// deadline but shuts down cleanly.
	ChaosStall = "stall"
	// ChaosHang blocks forever, ignoring cancellation — a cell whose
	// goroutine must be abandoned by the runner's watchdog.
	ChaosHang = "hang"
)

// NewChaos returns a fault-injection engine. Modes: ChaosPanic,
// ChaosStall, ChaosHang, or "" for a fault-free DFS.
func NewChaos(mode string) (Engine, error) {
	switch mode {
	case "", ChaosPanic, ChaosStall, ChaosHang:
	default:
		return nil, fmt.Errorf("chaos mode %q (want panic, stall or hang)", mode)
	}
	return &chaosEngine{mode: mode}, nil
}

// Name implements Engine.
func (e *chaosEngine) Name() string { return "chaos" }

// Explore implements Engine by misbehaving according to the mode.
func (e *chaosEngine) Explore(src model.Source, opt Options) Result {
	switch e.mode {
	case ChaosPanic:
		panic(fmt.Sprintf("chaos: injected fault in %s", src.Name()))
	case ChaosStall:
		if opt.Ctx != nil {
			<-opt.Ctx.Done()
		}
		return Result{Program: src.Name(), Engine: e.Name(), Interrupted: true}
	case ChaosHang:
		<-make(chan struct{})
	}
	res := NewDFS().Explore(src, opt)
	res.Engine = e.Name()
	return res
}
