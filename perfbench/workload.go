package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/figures"
	"repro/sct"
)

// workload is one named input set of the benchmark.
type workload struct {
	name, why string
	// limit is the per-cell schedule budget.
	limit int
	// firstBug runs cells in stop-at-first-bug mode.
	firstBug bool
	// verdicts captures, minimizes and replay-verifies every witness
	// inside the timed pass.
	verdicts bool
	// harness runs the goroutine-harness twins through sct.Run instead
	// of a corpus campaign.
	harness bool
	specs   func(seed int64) []string
}

var workloads = []*workload{
	{
		name:  "fig2-dpor",
		why:   "the paper's Figure 2 sweep: corpus x dpor at a fixed budget, where per-event exploration does almost all the work",
		limit: 10000,
		specs: func(int64) []string { return []string{"dpor"} },
	},
	{
		name:  "fig3-caching",
		why:   "the paper's Figure 3 sweep: corpus x regular and lazy HBR caching, many short pruned executions and growing caches",
		limit: 10000,
		specs: func(int64) []string { return []string{"hbr-caching", "lazy-hbr-caching"} },
	},
	{
		name:     "firstbug-grid",
		why:      "bug finding: corpus x the default engine grid, stop at first bug, then minimize and replay-verify every witness",
		limit:    200,
		firstBug: true,
		verdicts: true,
		specs:    firstBugSpecs,
	},
	{
		name:     "harness-twins",
		why:      "goroutine-harness twins of corpus programs x dpor and random: the only workload on the goroutine frontend",
		limit:    2000,
		verdicts: true,
		harness:  true,
		specs: func(seed int64) []string {
			return []string{"dpor", seeded("random", seed)}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// firstBugSpecs is the default grid minus parallel specs wider than
// the machine, with the samplers seeded from the benchmark seed.
func firstBugSpecs(seed int64) []string {
	var out []string
	for _, spec := range sct.DefaultGrid() {
		name, arg, _ := strings.Cut(spec, ":")
		if parallel(name) {
			if w, err := strconv.Atoi(arg); err == nil && w > runtime.NumCPU() {
				continue
			}
		}
		out = append(out, seeded(spec, seed))
	}
	return out
}

func parallel(name string) bool {
	for _, info := range sct.Engines() {
		if info.Name == name {
			return info.Parallel
		}
	}
	return false
}

// seeded gives a sampler spec the benchmark seed; other specs are
// returned unchanged.
func seeded(spec string, seed int64) string {
	name, _, _ := strings.Cut(spec, ":")
	s := strconv.FormatInt(seed, 10)
	switch name {
	case "random", "pos":
		return name + ":" + s
	case "pct":
		return spec + ":" + s
	}
	return spec
}

// session is a workload after set-up: the corpus, the resolved engine
// specs, the cell grid.
type session struct {
	w       *workload
	corpus  map[string]sct.Source
	names   []string
	specs   []string
	cells   []sct.Cell
	twins   []*sct.Program
	answers answers
}

// lookup resolves a program name of the workload, corpus or twin.
func (s *session) lookup(name string) sct.Source {
	if src, ok := s.corpus[name]; ok {
		return src
	}
	for _, p := range s.twins {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// setup builds everything a pass needs — corpus, engine specs, grid —
// and runs one warm-up cell.
func setup(w *workload, seed int64, ans answers) (*session, error) {
	s := &session{w: w, corpus: map[string]sct.Source{}, answers: ans}
	for _, b := range bench.All() {
		s.corpus[b.Name] = b.Program
		s.names = append(s.names, b.Name)
	}
	specs, err := sct.ParseSpecs(strings.Join(w.specs(seed), ","))
	if err != nil {
		return nil, err
	}
	s.specs = specs
	if w.harness {
		for _, t := range twins {
			s.twins = append(s.twins, t.build())
		}
		_, err := sct.Run(context.Background(), s.twins[0], s.specs[0], sct.WithScheduleLimit(w.limit))
		return s, err
	}
	opts := []sct.Option{sct.WithScheduleLimit(w.limit)}
	if w.firstBug {
		opts = append(opts, sct.StopAtFirstBug())
	}
	if s.cells, err = sct.Grid(s.names, s.specs, opts...); err != nil {
		return nil, err
	}
	camp, err := sct.NewCampaign(s.cells[:1], sct.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	for r := range camp.Results(context.Background()) {
		if r.Err != "" {
			return nil, fmt.Errorf("warm-up cell %s/%s: %s", r.Cell.Bench, r.Cell.Engine, r.Err)
		}
	}
	return s, nil
}

// cellRun is one cell of one pass.
type cellRun struct {
	bench, spec string
	// src is the program the cell explored: the corpus program, or the
	// twin standing in for it.
	src sct.Source
	res sct.Result
	// explore is the time to the cell's result: the interval between
	// streamed campaign results, or the sct.Run call.
	explore time.Duration
	// verdict adds capture, minimize and replay-verify of the witness.
	verdict time.Duration
	min     *sct.MinimizeStats
	err     string
}

// pass is one timed run over the workload.
type pass struct {
	traced bool
	wall   time.Duration
	cells  []cellRun
	// aggregate is the figures.*FromCells time; capture, minimize and
	// replay sum the verdict stages over witnesses.
	aggregate, capture, minimize time.Duration
	witnesses                    int
	// aggErr is the figure aggregation's error, if any.
	aggErr string
}

func (s *session) runPass(ctx context.Context, traced bool) (pass, error) {
	p := pass{traced: traced}
	start := time.Now()
	if s.w.harness {
		s.runTwins(ctx, &p)
	} else if err := s.runCampaign(ctx, &p); err != nil {
		return p, err
	}
	if s.w.verdicts {
		runVerdicts(&p)
	}
	p.wall = time.Since(start)
	return p, nil
}

func (s *session) runCampaign(ctx context.Context, p *pass) error {
	cells := s.cells
	if p.traced {
		cells = make([]sct.Cell, len(s.cells))
		for i, c := range s.cells {
			c.Engine = sct.EngineSpec(tracedSpec(string(c.Engine)))
			cells[i] = c
		}
	}
	camp, err := sct.NewCampaign(cells, sct.WithWorkers(1))
	if err != nil {
		return err
	}
	results := make([]sct.CellResult, len(cells))
	p.cells = make([]cellRun, len(cells))
	last := time.Now()
	for r := range camp.Results(ctx) {
		now := time.Now()
		r.Cell.Engine = s.cells[r.Index].Engine
		results[r.Index] = r
		p.cells[r.Index] = cellRun{
			bench: r.Cell.Bench, spec: string(r.Cell.Engine), src: s.corpus[r.Cell.Bench], res: r.Result,
			explore: now.Sub(last), verdict: now.Sub(last), err: r.Err,
		}
		last = now
	}
	if err := camp.Err(); err != nil {
		return err
	}
	start := time.Now()
	switch s.w.name {
	case "fig2-dpor":
		_, err = figures.Fig2FromCells(results)
	case "fig3-caching":
		_, err = figures.Fig3FromCells(results)
	default:
		figures.FirstBugFromCells(results)
	}
	p.aggregate = time.Since(start)
	if err != nil {
		p.aggErr = err.Error()
	}
	return nil
}

func (s *session) runTwins(ctx context.Context, p *pass) {
	for i, prog := range s.twins {
		for _, spec := range s.specs {
			engine := spec
			if p.traced {
				engine = tracedSpec(spec)
			}
			start := time.Now()
			rep, err := sct.Run(ctx, prog, engine, sct.WithScheduleLimit(s.w.limit))
			d := time.Since(start)
			c := cellRun{bench: twins[i].original, spec: spec, src: prog, explore: d, verdict: d}
			if rep != nil {
				c.res = rep.Result
			}
			if err != nil {
				c.err = err.Error()
			}
			p.cells = append(p.cells, c)
		}
	}
}

// runVerdicts turns every witness into a minimized, replay-verified
// counterexample, adding the time to each cell's verdict.
func runVerdicts(p *pass) {
	for i := range p.cells {
		c := &p.cells[i]
		if c.err != "" || c.res.FirstViolation == nil {
			continue
		}
		start := time.Now()
		cx, err := sct.NewCounterexample(c.src, c.res, 0)
		captured := time.Now()
		p.capture += captured.Sub(start)
		if err != nil {
			c.err = "capture: " + err.Error()
			continue
		}
		st, err := cx.Minimize()
		minimized := time.Now()
		p.minimize += minimized.Sub(captured)
		if err != nil {
			c.err = "minimize: " + err.Error()
			continue
		}
		_, err = cx.Replay(nil)
		c.verdict += time.Since(start)
		c.min = &st
		p.witnesses++
		switch {
		case err != nil:
			c.err = "replay: " + err.Error()
		case cx.Kind() != c.res.ViolationKind:
			c.err = fmt.Sprintf("minimized witness is a %q, search reported %q", cx.Kind(), c.res.ViolationKind)
		}
	}
}

// checkPass validates every cell of a pass against the known answers
// and returns one message per failed cell.
func (s *session) checkPass(p pass) []string {
	var fails []string
	if p.aggErr != "" {
		fails = append(fails, "figures: "+p.aggErr)
	}
	for _, c := range p.cells {
		msg := c.err
		if msg == "" {
			a, ok := s.answers[c.bench]
			if !ok {
				msg = "no known answer"
			} else if err := a.check(c.spec, s.w.firstBug, c.res); err != nil {
				msg = err.Error()
			}
		}
		if msg != "" {
			fails = append(fails, fmt.Sprintf("%s/%s: %s", c.bench, c.spec, msg))
		}
	}
	return fails
}

// checkTwins compares every twin cell with its progdsl original run
// under the same spec and budget.
func (s *session) checkTwins(ctx context.Context, p pass) []string {
	var fails []string
	for _, c := range p.cells {
		if c.err != "" {
			continue // already reported by checkPass
		}
		ref, err := sct.Run(ctx, s.corpus[c.bench], c.spec, sct.WithScheduleLimit(s.w.limit))
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s/%s: reference: %v", c.bench, c.spec, err))
			continue
		}
		got, want := c.res, ref.Result
		if got.Schedules != want.Schedules || got.DistinctHBRs != want.DistinctHBRs ||
			got.DistinctLazyHBRs != want.DistinctLazyHBRs || got.DistinctStates != want.DistinctStates {
			fails = append(fails, fmt.Sprintf("%s/%s: twin schedules/hbrs/lazy/states %d/%d/%d/%d, original %d/%d/%d/%d",
				c.bench, c.spec, got.Schedules, got.DistinctHBRs, got.DistinctLazyHBRs, got.DistinctStates,
				want.Schedules, want.DistinctHBRs, want.DistinctLazyHBRs, want.DistinctStates))
		}
	}
	return fails
}

// samePass reports the cells whose Results differ between two passes.
// Work-stealing statistics are zeroed, and a search spread over several
// workers is compared only on whether it found a bug: which units its
// workers run — and so its counts and, when it stops at the first bug,
// its witness — depends on their timing, traced or not.
func samePass(a, b pass) []string {
	var diffs []string
	if len(a.cells) != len(b.cells) {
		return []string{fmt.Sprintf("passes have %d and %d cells", len(a.cells), len(b.cells))}
	}
	for i := range a.cells {
		spec := a.cells[i].spec
		ra, rb := comparable(spec, a.cells[i].res), comparable(spec, b.cells[i].res)
		if !reflect.DeepEqual(ra, rb) {
			diffs = append(diffs, fmt.Sprintf("%s/%s: traced and untraced results differ:\n  %+v\n  %+v",
				a.cells[i].bench, spec, ra, rb))
		}
	}
	return diffs
}

// comparable returns the part of a cell's Result that must not depend
// on timing.
func comparable(spec string, r sct.Result) any {
	r.Steal = nil
	if multiWorker(spec) {
		return struct {
			Program, Engine string
			FoundBug        bool
		}{r.Program, r.Engine, r.ViolationKind != ""}
	}
	return r
}

// multiWorker reports whether spec is a parallel search over more than
// one worker.
func multiWorker(spec string) bool {
	name, arg, _ := strings.Cut(spec, ":")
	w, err := strconv.Atoi(arg)
	return parallel(name) && (err != nil || w > 1)
}
