package campaign

import (
	"fmt"

	"repro/internal/engines"
	"repro/internal/explore"
)

// EngineSpec names an exploration engine configuration in a compact,
// JSON- and flag-friendly form:
//
//	dfs                     exhaustive depth-first search
//	dpor | dpor+sleep       dynamic partial-order reduction
//	lazy-dpor               the paper's Section 4 experimental engine
//	hbr-caching             regular HBR caching
//	lazy-hbr-caching        lazy HBR caching
//	random[:seed]           seeded random walk
//	pct:d[:seed]            probabilistic concurrency testing
//	pos[:seed]              partial-order sampling
//	pb:N                    preemption bounding
//	db:N                    delay bounding
//	pdpor[:W]               work-stealing parallel DPOR over W workers
//
// W and seed default to GOMAXPROCS and 1. The grammar is backed by
// the shared engine registry (internal/engines): any engine registered
// there — including embedder-registered ones via sct.Register — is a
// valid spec.
type EngineSpec string

// Build instantiates the engine the spec names through the shared
// registry.
func (s EngineSpec) Build() (explore.Engine, error) {
	eng, err := engines.Build(string(s))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return eng, nil
}
