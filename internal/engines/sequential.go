package engines

import (
	"fmt"

	"repro/internal/explore"
)

// The sequential engines of internal/explore self-register here, in
// the canonical order every listing and the default grid follow. The
// parallel search registers from internal/campaign (it is built on the
// campaign worker machinery), after these.
func init() {
	Register(Info{
		Name: "dfs", Summary: "exhaustive depth-first enumeration (the baseline search)",
		Grid:  []string{"dfs"},
		Build: NoArgs(explore.NewDFS),
	})
	Register(Info{
		Name: "dpor", Summary: "dynamic partial-order reduction (Flanagan & Godefroid)",
		Grid:  []string{"dpor"},
		Build: NoArgs(func() explore.Engine { return explore.NewDPOR(false) }),
	})
	Register(Info{
		Name: "dpor+sleep", Summary: "DPOR with sleep sets",
		Grid:  []string{"dpor+sleep"},
		Build: NoArgs(func() explore.Engine { return explore.NewDPOR(true) }),
	})
	Register(Info{
		Name: "lazy-dpor", Summary: "the paper's Section 4 experimental lazy DPOR",
		Grid:  []string{"lazy-dpor"},
		Build: NoArgs(explore.NewLazyDPOR),
	})
	Register(Info{
		Name: "hbr-caching", Summary: "regular HBR caching (Musuvathi & Qadeer)",
		Grid:  []string{"hbr-caching"},
		Build: NoArgs(explore.NewHBRCache),
	})
	Register(Info{
		Name: "lazy-hbr-caching", Summary: "lazy HBR caching (the paper's Section 2)",
		Grid:  []string{"lazy-hbr-caching"},
		Build: NoArgs(explore.NewLazyHBRCache),
	})
	Register(Info{
		Name: "pb", Usage: "pb:N[:hbr|:lazy]",
		Summary: "preemption-bounded DFS, optionally with (lazy) HBR caching",
		Grid:    []string{"pb:2"},
		Build:   buildPB,
	})
	Register(Info{
		Name: "db", Usage: "db:N", Summary: "delay-bounded DFS",
		Grid: []string{"db:2"},
		Build: func(argv []string) (explore.Engine, error) {
			bound, err := boundArg(argv, 2)
			if err != nil {
				return nil, err
			}
			return explore.NewDelayBounded(bound), nil
		},
	})
	Register(Info{
		Name: "chess-pb", Usage: "chess-pb:N",
		Summary: "iterative preemption-bound deepening (CHESS)",
		Build: func(argv []string) (explore.Engine, error) {
			bound, err := boundArg(argv, 3)
			if err != nil {
				return nil, err
			}
			return explore.NewIterativePreemptionBounding(bound), nil
		},
	})
	Register(Info{
		Name: "chess-db", Usage: "chess-db:N",
		Summary: "iterative delay-bound deepening",
		Build: func(argv []string) (explore.Engine, error) {
			bound, err := boundArg(argv, 3)
			if err != nil {
				return nil, err
			}
			return explore.NewIterativeDelayBounding(bound), nil
		},
	})
	Register(Info{
		Name: "random", Usage: "random[:seed]",
		Summary: "seeded random walk (the non-systematic baseline)",
		Grid:    []string{"random"},
		Build: func(argv []string) (explore.Engine, error) {
			seed, err := IntArg(argv, 0, 1)
			if err != nil {
				return nil, err
			}
			return explore.NewRandomWalk(int64(seed)), nil
		},
	})
	Register(Info{
		Name: "pct", Usage: "pct:d[:seed]",
		Summary: "probabilistic concurrency testing (Burckhardt et al.): priority scheduling with d-1 random change points",
		Grid:    []string{"pct:3"},
		Build: func(argv []string) (explore.Engine, error) {
			d, err := IntArg(argv, 0, 3)
			if err != nil {
				return nil, err
			}
			if d < 1 {
				return nil, fmt.Errorf("bug depth %d (want >= 1)", d)
			}
			seed, err := IntArg(argv, 1, 1)
			if err != nil {
				return nil, err
			}
			return explore.NewPCT(int64(seed), d), nil
		},
	})
	Register(Info{
		Name: "pos", Usage: "pos[:seed]",
		Summary: "partial-order sampling: racing pending events redraw their random priorities (near-uniform over trace classes)",
		Grid:    []string{"pos"},
		Build: func(argv []string) (explore.Engine, error) {
			seed, err := IntArg(argv, 0, 1)
			if err != nil {
				return nil, err
			}
			return explore.NewPOS(int64(seed)), nil
		},
	})
	Register(Info{
		Name: "chaos", Usage: "chaos[:panic|:stall|:hang]",
		Summary: "fault injection: panics, stalls or hangs to exercise campaign containment; a bare chaos is a plain DFS (no grid contribution)",
		Build: func(argv []string) (explore.Engine, error) {
			switch len(argv) {
			case 0:
				return explore.NewChaos("")
			case 1:
				return explore.NewChaos(argv[0])
			}
			return nil, fmt.Errorf("takes at most one argument, got %v", argv)
		},
	})
}

// boundArg parses a bounded search's bound, the first argument,
// rejecting a negative one.
func boundArg(argv []string, dflt int) (int, error) {
	bound, err := IntArg(argv, 0, dflt)
	if err == nil && bound < 0 {
		err = fmt.Errorf("bound %d (want >= 0)", bound)
	}
	return bound, err
}

func buildPB(argv []string) (explore.Engine, error) {
	bound, err := boundArg(argv, 2)
	if err != nil {
		return nil, err
	}
	if len(argv) > 1 {
		switch argv[1] {
		case "hbr":
			return explore.NewPreemptionBoundedCache(bound, false), nil
		case "lazy":
			return explore.NewPreemptionBoundedCache(bound, true), nil
		default:
			return nil, fmt.Errorf("cache mode %q (want hbr or lazy)", argv[1])
		}
	}
	return explore.NewPreemptionBounded(bound), nil
}
