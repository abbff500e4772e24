package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/sct"
)

// Known-answer generation: the first of genEngines that finishes a
// program's schedule space within genLimit gives its exact kinds and
// state count. For programs none finishes, the kinds are the union of
// what every generation search (plus genSamplers seeded random walks)
// saw — a lower bound.
const (
	genLimit        = 1000000
	genSamplers     = 8
	genSamplerLimit = 20000
)

var genEngines = []string{"dfs", "dpor+sleep", "lazy-hbr-caching"}

func generateAnswers(path string, log io.Writer) error {
	f := answerFile{
		Generation: fmt.Sprintf("first of %q to finish within %d schedules; otherwise the union of their kinds and %d random walks of %d schedules",
			genEngines, genLimit, genSamplers, genSamplerLimit),
	}
	ctx := context.Background()
	for _, b := range bench.All() {
		a := answer{Name: b.Name}
		seen := map[string]bool{}
		add := func(r sct.Result) {
			for _, k := range resultKinds(r) {
				seen[k] = true
			}
		}
		for _, spec := range genEngines {
			rep, err := sct.Run(ctx, b.Program, spec, sct.WithScheduleLimit(genLimit))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", b.Name, spec, err)
			}
			if !rep.HitLimit {
				a.Exhaustive = spec
				a.States = rep.DistinctStates
				seen = map[string]bool{}
				add(rep.Result)
				break
			}
			add(rep.Result)
		}
		if a.Exhaustive == "" {
			for seed := 1; seed <= genSamplers; seed++ {
				rep, err := sct.Run(ctx, b.Program, fmt.Sprintf("random:%d", seed), sct.WithScheduleLimit(genSamplerLimit))
				if err != nil {
					return fmt.Errorf("%s/random: %w", b.Name, err)
				}
				add(rep.Result)
			}
		}
		a.Kinds = []string{}
		for k := range seen {
			a.Kinds = append(a.Kinds, k)
		}
		slices.Sort(a.Kinds)
		fmt.Fprintf(log, "%-24s %-18s states=%-7d kinds=%q notes=%q\n", a.Name, a.Exhaustive, a.States, a.Kinds, b.Notes)
		f.Programs = append(f.Programs, a)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
