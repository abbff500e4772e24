package sct

import (
	"fmt"

	"repro/internal/engines"
)

// EngineInfo describes one registered engine: its canonical spec
// name, spec grammar, a one-line summary, whether it is a parallel
// search, the specs it contributes to [DefaultGrid], and its builder.
type EngineInfo = engines.Info

// Register adds an engine to the global registry, making it buildable
// by name through [Run], [NewEngine], campaign cells and the eval
// tooling. The name must be unique and free of the spec-grammar
// separators (":", ",", space); violations panic, as they are
// embedder programming errors.
//
// The built-in engines self-register: the sequential families
// (dfs, dpor, dpor+sleep, lazy-dpor, hbr-caching, lazy-hbr-caching,
// pb, db, random, pct, pos) plus the work-stealing parallel search
// (pdpor).
//
// The randomized engines (random, pct, pos) are seed-
// reproducible: every spec takes an integer seed (default 1), walk i
// of a run is a pure function of (seed, i) and the program, and two
// runs of the same spec under the same Options produce byte-identical
// Results. pct and pos additionally embed the seed in their engine
// name, so counterexample artifacts record the exact configuration
// that found the bug; replaying an artifact never needs the seed at
// all, because artifacts store the complete schedule (see the
// Counterexample docs and docs/ENGINES.md).
func Register(info EngineInfo) {
	engines.Register(info)
}

// Engines lists every registered engine in canonical order.
func Engines() []EngineInfo {
	return engines.All()
}

// EngineNames lists the registered engine names in canonical order.
func EngineNames() []string {
	return engines.Names()
}

// DefaultGrid is the canonical default engine grid — one spec per
// technique the paper-style evaluation sweeps, in canonical order
// (e.g. "pb:2" for preemption bounding, "pdpor:1/2/4" for the
// work-stealing search). cmd/eval's bug-finding table defaults to it.
func DefaultGrid() []string {
	return engines.DefaultGrid()
}

// NewEngine builds an engine from a registry spec
// ("name[:arg[:arg...]]"), e.g. "dpor+sleep", "pb:2",
// "random:7", "pdpor:4".
func NewEngine(spec string) (Engine, error) {
	eng, err := engines.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("sct: %w", err)
	}
	return eng, nil
}
