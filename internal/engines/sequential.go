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
		Name: "pb", Usage: "pb:N", Summary: "preemption-bounded DFS",
		Grid:  []string{"pb:2"},
		Build: bounded(explore.NewPreemptionBounded),
	})
	Register(Info{
		Name: "db", Usage: "db:N", Summary: "delay-bounded DFS",
		Grid:  []string{"db:2"},
		Build: bounded(explore.NewDelayBounded),
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
}

// bounded adapts a bounded search's constructor to a Builder: the one
// argument is the bound, 2 when absent, and a negative one is rejected.
func bounded(build func(bound int) explore.Engine) Builder {
	return func(argv []string) (explore.Engine, error) {
		bound, err := IntArg(argv, 0, 2)
		if err != nil {
			return nil, err
		}
		if bound < 0 {
			return nil, fmt.Errorf("bound %d (want >= 0)", bound)
		}
		return build(bound), nil
	}
}
