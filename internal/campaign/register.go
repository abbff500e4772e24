package campaign

import (
	"repro/internal/engines"
	"repro/internal/explore"
)

// The parallel single-search engine self-registers with the shared
// engine registry: any binary that links the campaign runner can build
// it by spec name next to the sequential engines. The worker count
// defaults to GOMAXPROCS (0).
func init() {
	engines.Register(engines.Info{
		Name: "pdpor", Usage: "pdpor[:W]", Parallel: true,
		Summary: "work-stealing parallel DPOR over W workers",
		Grid:    []string{"pdpor:1", "pdpor:2", "pdpor:4"},
		Build: func(argv []string) (explore.Engine, error) {
			w, err := engines.IntArg(argv, 0, 0)
			if err != nil {
				return nil, err
			}
			return NewParallelDPOR(w), nil
		},
	})
}
