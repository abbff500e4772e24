// Command eval regenerates the paper's evaluation (Figures 2 and 3)
// over the benchmark corpus (the paper's 79 plus the channel family):
//
//	eval -fig all -limit 100000
//
// For each figure it prints the per-benchmark TSV rows, an ASCII
// log-log scatter with the diagonal, and the paper's summary
// statistics (benchmarks below the diagonal, redundancy percentages).
// Use -md to emit EXPERIMENTS.md-ready markdown instead of TSV.
//
// The campaign mode runs an arbitrary benchmark × engine grid through
// the parallel campaign runner and streams one JSON line per cell:
//
//	eval -fig campaign -engines dpor,lazy-dpor,pdpor:4 -bench coarse -json
//
// A partial JSONL stream checkpoint-resumes a campaign: with
// `-resume cells.jsonl` every cell already present in the stream is
// skipped and only the remainder runs (append new output with `>>`).
// Streamed JSONL parses back via sct.ReadResults; Figure rows can be
// rebuilt from a stream with figures.Fig2FromCells/Fig3FromCells.
//
// The tool runs entirely on the public sct facade; engine specs are
// registry specs (see `sct.EngineNames`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/figures"
	"repro/sct"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", `figure to regenerate: "2", "3", "all", "campaign" or "firstbug"`)
		limit    = fs.Int("limit", 100000, "schedule limit per benchmark (paper: 100000)")
		steps    = fs.Int("maxsteps", 2000, "per-execution event bound")
		filter   = fs.String("bench", "", "only benchmarks whose name contains this substring")
		family   = fs.String("family", "", "only benchmarks of this family")
		md       = fs.Bool("md", false, "emit markdown tables instead of TSV")
		quiet    = fs.Bool("quiet", false, "suppress per-benchmark progress on stderr")
		scatter  = fs.Bool("scatter", true, "print the ASCII log-log scatter")
		par      = fs.Int("parallel", -1, "cells explored concurrently (-1 = GOMAXPROCS, 1 = sequential)")
		engines  = fs.String("engines", "", "comma-separated engine specs for campaign/firstbug mode (default: dpor; firstbug default: the registry's canonical grid)")
		asJSON   = fs.Bool("json", false, "stream campaign results as JSON lines (campaign/firstbug mode)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
		resume   = fs.String("resume", "", "campaign/firstbug mode: skip cells already present in this JSONL result stream")
		reproDir = fs.String("repro", "", "firstbug mode: write one counterexample artifact per buggy cell into this directory")
		minimize = fs.Bool("minimize", false, "firstbug mode: ddmin-minimize artifacts before writing them")
		verify   = fs.Bool("verify", false, "firstbug mode: re-read each written artifact and verify its replay reproduces")
		stall    = fs.Duration("stall-timeout", 0, "campaign/firstbug mode: fence threads whose next operation stalls longer than this as diverged (0 = watchdog off)")
		cellTO   = fs.Duration("cell-timeout", 0, "campaign/firstbug mode: per-cell wall-clock deadline; late cells are quarantined, not fatal (0 = none)")
		progress = fs.Bool("progress", false, "campaign/firstbug mode: live status line on stderr (cells done/total, schedules/sec, slowest in-flight cell)")
		metrics  = fs.String("metrics", "", `serve expvar counters and net/http/pprof on this address (e.g. "localhost:6060"; ":0" picks a free port)`)
		hbEvery  = fs.Duration("heartbeat", 0, "campaign/firstbug mode with -json: mix per-cell heartbeat JSON lines into the result stream at this cadence")
		flight   = fs.String("flight", "", "campaign/firstbug mode: dump a flight-recorder artifact per failing cell into this directory (firstbug: defaults to the -repro directory)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *engines == "" {
		if *fig == "firstbug" {
			// The paper-style technique grid, derived from the shared
			// engine registry's canonical ordering.
			*engines = strings.Join(sct.DefaultGrid(), ",")
		} else {
			*engines = "dpor"
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var selected []bench.Benchmark
	for _, b := range bench.All() {
		if *filter != "" && !strings.Contains(b.Name, *filter) {
			continue
		}
		if *family != "" && b.Family != *family {
			continue
		}
		selected = append(selected, b)
	}
	// The hostile fault-injection programs are outside the pinned
	// corpus and join a grid only when explicitly named: campaign and
	// firstbug modes with a -bench filter that matches them. The
	// figure modes never see them.
	if (*fig == "campaign" || *fig == "firstbug") && *filter != "" {
		for _, b := range bench.Hostile() {
			if strings.Contains(b.Name, *filter) && (*family == "" || b.Family == *family) {
				selected = append(selected, b)
			}
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(stderr, "eval: no benchmarks selected")
		return 2
	}

	opt := figures.Options{ScheduleLimit: *limit, MaxSteps: *steps, Parallelism: *par, Ctx: ctx}
	if !*quiet {
		opt.Progress = stderr
	}

	if *resume != "" && *fig != "campaign" && *fig != "firstbug" {
		fmt.Fprintln(stderr, "eval: -resume applies only to -fig campaign/firstbug")
		return 2
	}
	if (*reproDir != "" || *minimize || *verify) && *fig != "firstbug" {
		fmt.Fprintln(stderr, "eval: -repro/-minimize/-verify apply only to -fig firstbug")
		return 2
	}
	if (*stall > 0 || *cellTO > 0) && *fig != "campaign" && *fig != "firstbug" {
		fmt.Fprintln(stderr, "eval: -stall-timeout/-cell-timeout apply only to -fig campaign/firstbug")
		return 2
	}
	if (*progress || *hbEvery > 0 || *flight != "") && *fig != "campaign" && *fig != "firstbug" {
		fmt.Fprintln(stderr, "eval: -progress/-heartbeat/-flight apply only to -fig campaign/firstbug")
		return 2
	}
	if *hbEvery > 0 && !*asJSON {
		fmt.Fprintln(stderr, "eval: -heartbeat mixes JSON heartbeat lines into the result stream; it requires -json")
		return 2
	}
	if *metrics != "" {
		addr, err := serveMetrics(*metrics)
		if err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 2
		}
		fmt.Fprintf(stderr, "metrics: expvar on http://%s/debug/vars, pprof on http://%s/debug/pprof/\n", addr, addr)
	}

	if *fig == "campaign" {
		return runCampaign(ctx, selected, *engines, campaignConfig{
			limit: *limit, steps: *steps, par: *par,
			asJSON: *asJSON, resume: *resume,
			stall: *stall, cellTO: *cellTO,
			progress: *progress, hbEvery: *hbEvery, flight: *flight,
		}, stdout, stderr)
	}

	if *fig == "firstbug" {
		return runFirstBug(ctx, selected, *engines, firstBugConfig{
			limit: *limit, steps: *steps, par: *par,
			asJSON: *asJSON, md: *md, quiet: *quiet,
			resume:   *resume,
			reproDir: *reproDir, minimize: *minimize, verify: *verify,
			stall: *stall, cellTO: *cellTO,
			progress: *progress, hbEvery: *hbEvery, flight: *flight,
		}, stdout, stderr)
	}

	if *fig == "2" || *fig == "all" {
		rows, err := figures.Fig2(selected, opt)
		if err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
		fmt.Fprintln(stdout, "== Figure 2: DPOR — #HBRs (x) vs #lazy HBRs (y) ==")
		if *md {
			fmt.Fprint(stdout, figures.MarkdownFig2(rows, *limit))
		} else {
			fmt.Fprint(stdout, figures.TSV2(rows))
			s := figures.SummarizeFig2(rows)
			fmt.Fprintf(stdout, "summary: %d/%d below diagonal; %d of %d unique HBRs (%.0f%%) redundant across them\n",
				s.BelowDiagonal, s.Benchmarks, s.RedundantBelow, s.HBRsBelow, s.RedundantPct())
		}
		if *scatter {
			fmt.Fprint(stdout, figures.Scatter(figures.Fig2Points(rows), 72, 24, "#HBRs", "#lazy HBRs"))
		}
		fmt.Fprintln(stdout)
	}

	if *fig == "3" || *fig == "all" {
		rows, err := figures.Fig3(selected, opt)
		if err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
		fmt.Fprintln(stdout, "== Figure 3: HBR caching (x) vs lazy HBR caching (y) — #lazy HBRs ==")
		if *md {
			fmt.Fprint(stdout, figures.MarkdownFig3(rows, *limit))
		} else {
			fmt.Fprint(stdout, figures.TSV3(rows))
			s := figures.SummarizeFig3(rows)
			fmt.Fprintf(stdout, "summary: lazy caching ahead on %d/%d benchmarks (+%d lazy HBRs, +%.0f%%); regular ahead on %d (must be 0)\n",
				s.LazyWins, s.Benchmarks, s.ExtraLazyHBRs, s.ExtraPct(), s.RegularWins)
		}
		if *scatter {
			fmt.Fprint(stdout, figures.Scatter(figures.Fig3Points(rows), 72, 24, "HBR caching #lazy HBRs", "lazy caching #lazy HBRs"))
		}
	}
	return 0
}

// buildCampaign parses the engine list and assembles the campaign
// over the benchmark × engine cell grid shared by the campaign and
// firstbug modes. containment carries the runner-level fault knobs;
// obs the observability ones (the returned renderer is non-nil when
// -progress is armed).
func buildCampaign(selected []bench.Benchmark, engineList string, par int, cont containment, obs observability, gridOpts ...sct.Option) (*sct.Campaign, *progressRenderer, error) {
	specs, err := sct.ParseSpecs(engineList)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(selected))
	for i, b := range selected {
		names[i] = b.Name
	}
	if cont.stall > 0 {
		gridOpts = append(gridOpts, sct.WithStallTimeout(cont.stall))
	}
	cells, err := sct.Grid(names, specs, gridOpts...)
	if err != nil {
		return nil, nil, err
	}
	// Workers <= 0 already means GOMAXPROCS.
	campOpts := []sct.Option{sct.WithWorkers(par)}
	if cont.cellTO > 0 {
		campOpts = append(campOpts, sct.WithCellTimeout(cont.cellTO))
	}
	var rend *progressRenderer
	var hbFns []func(sct.Heartbeat)
	if obs.progress {
		rend = newProgressRenderer(obs.stderr, len(cells))
		hbFns = append(hbFns, rend.heartbeat)
	}
	if obs.hbEvery > 0 {
		hbFns = append(hbFns, sct.HeartbeatWriter(obs.stdout))
	}
	if len(hbFns) > 0 {
		fn := hbFns[0]
		if len(hbFns) > 1 {
			fns := hbFns
			fn = func(h sct.Heartbeat) {
				for _, f := range fns {
					f(h)
				}
			}
		}
		// -progress alone runs the default cadence (hbEvery is 0).
		campOpts = append(campOpts, sct.WithHeartbeat(obs.hbEvery, fn))
	}
	if obs.flight != "" {
		campOpts = append(campOpts, sct.WithFlightRecorder(obs.flight))
	}
	camp, err := sct.NewCampaign(cells, campOpts...)
	return camp, rend, err
}

// observability bundles the telemetry knobs the campaign and firstbug
// modes share: the live -progress renderer, the -heartbeat JSONL
// cadence and the -flight artifact directory.
type observability struct {
	progress       bool
	hbEvery        time.Duration
	flight         string
	stdout, stderr io.Writer
}

// aggregateRates renders a run's throughput: total schedules and
// events with their per-second rates over the campaign wall clock.
func aggregateRates(results []sct.CellResult, wall time.Duration) string {
	var sched, events int64
	for _, r := range results {
		sched += int64(r.Result.Schedules)
		events += r.Result.Events
	}
	secs := wall.Seconds()
	if secs <= 0 {
		return fmt.Sprintf("%d schedules, %d events", sched, events)
	}
	return fmt.Sprintf("%d schedules at %.0f/s, %d events at %.0f/s",
		sched, float64(sched)/secs, events, float64(events)/secs)
}

// containment bundles the fault-containment knobs the campaign and
// firstbug modes share.
type containment struct {
	stall, cellTO time.Duration
}

// campaignConfig bundles the campaign-mode knobs.
type campaignConfig struct {
	limit, steps, par int
	asJSON            bool
	resume            string
	stall, cellTO     time.Duration
	progress          bool
	hbEvery           time.Duration
	flight            string
}

// firstBugConfig bundles the firstbug-mode knobs.
type firstBugConfig struct {
	limit, steps, par int
	asJSON, md, quiet bool
	resume            string
	reproDir          string
	minimize, verify  bool
	stall, cellTO     time.Duration
	progress          bool
	hbEvery           time.Duration
	flight            string
}

// resumeFromFile feeds a JSONL checkpoint into the campaign and logs
// how many cells it satisfied.
func resumeFromFile(camp *sct.Campaign, path string, stderr io.Writer) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := camp.Resume(f)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stderr, "resume: %d cells already done in %s, skipping\n", n, path)
	return n, nil
}

// runFirstBug runs every (benchmark, engine) cell in bug-finding mode
// (stop at first violation), streams schedules-to-first-bug per cell,
// renders the paper-style bug-finding table, and optionally writes a
// (minimized) counterexample artifact per buggy cell.
func runFirstBug(ctx context.Context, selected []bench.Benchmark, engineList string, cfg firstBugConfig, stdout, stderr io.Writer) int {
	// The flight recorder defaults to the artifact directory: a
	// quarantined cell's dump lands next to the counterexamples.
	flightDir := cfg.flight
	if flightDir == "" && cfg.reproDir != "" {
		flightDir = cfg.reproDir
	}
	camp, rend, err := buildCampaign(selected, engineList, cfg.par,
		containment{stall: cfg.stall, cellTO: cfg.cellTO},
		observability{progress: cfg.progress, hbEvery: cfg.hbEvery, flight: flightDir, stdout: stdout, stderr: stderr},
		sct.WithBounds(cfg.limit, cfg.steps), sct.StopAtFirstBug())
	if err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return 2
	}
	resumed := 0
	if cfg.resume != "" {
		if resumed, err = resumeFromFile(camp, cfg.resume, stderr); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 2
		}
		if rend != nil {
			rend.absorbResumed(resumed)
		}
	}
	emit := func(sct.CellResult) {}
	switch {
	case cfg.asJSON:
		emit = sct.JSONLWriter(stdout)
	case !cfg.quiet:
		line := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
		if rend != nil {
			line = rend.println
		}
		emit = func(r sct.CellResult) {
			bug := "no bug"
			if r.Result.ViolationKind != "" {
				bug = fmt.Sprintf("%s at schedule %d", r.Result.ViolationKind, r.Result.FirstBugSchedule)
			} else if r.Result.HitLimit {
				bug = "no bug within limit"
			}
			line("%-24s %-18s %s (%d schedules, %dms)",
				r.Cell.Bench, r.Cell.Engine, bug, r.Result.Schedules, r.ElapsedMS)
		}
	}
	// The resumed cells join the streamed ones for the table and the
	// artifact pass: only the new cells are emitted, but the table is
	// always the full grid.
	start := time.Now()
	results := camp.Resumed()
	var fresh []sct.CellResult
	for r := range camp.Results(ctx) {
		emit(r)
		recordCellMetrics(r)
		if rend != nil {
			rend.cellDone(r)
		}
		results = append(results, r)
		fresh = append(fresh, r)
	}
	if rend != nil {
		rend.finish()
	}
	if err := camp.Err(); err != nil {
		fmt.Fprintln(stderr, "eval: firstbug campaign interrupted:", err)
		return 1
	}
	wall := time.Since(start)
	note := ""
	if resumed > 0 {
		note = fmt.Sprintf(" (%d resumed)", resumed)
	}
	fmt.Fprintf(stderr, "firstbug: %d cells%s in %v (%s)\n",
		len(fresh), note, wall.Round(time.Millisecond), aggregateRates(fresh, wall))
	reportContainment(results, stderr)
	if err := sct.FirstError(results); err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return 1
	}
	table := figures.FirstBugFromCells(results)
	if !cfg.asJSON {
		fmt.Fprintln(stdout, "== Bug finding: schedules to first bug ==")
		if cfg.md {
			fmt.Fprint(stdout, figures.MarkdownFirstBug(table, cfg.limit))
		} else {
			fmt.Fprint(stdout, figures.TSVFirstBug(table))
			fmt.Fprint(stdout, figures.SummaryFirstBug(table))
		}
	}
	if cfg.reproDir != "" {
		if code := writeArtifacts(results, cfg, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// writeArtifacts captures (and optionally minimizes and verifies) one
// counterexample artifact per buggy cell.
func writeArtifacts(results []sct.CellResult, cfg firstBugConfig, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.reproDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return 1
	}
	sanitize := strings.NewReplacer(":", "-", "/", "-", "[", "", "]", "")
	wrote := 0
	for _, r := range results {
		if r.Result.ViolationKind == "" {
			continue
		}
		bm, ok := bench.ByName(r.Cell.Bench)
		if !ok {
			fmt.Fprintf(stderr, "eval: unknown benchmark %q in results\n", r.Cell.Bench)
			return 1
		}
		cx, err := sct.NewCounterexample(bm.Program, r.Result, r.Cell.MaxSteps)
		if err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
		if cfg.minimize {
			stats, err := cx.Minimize()
			if err != nil {
				fmt.Fprintln(stderr, "eval:", err)
				return 1
			}
			fmt.Fprintf(stderr, "minimized %s/%s: %d→%d choices, %d→%d preemptions (%d replays)\n",
				r.Cell.Bench, r.Cell.Engine, stats.OriginalChoices, stats.MinChoices,
				stats.OriginalPreemptions, stats.MinPreemptions, stats.Replays)
		}
		path := filepath.Join(cfg.reproDir, fmt.Sprintf("%s__%s.json", r.Cell.Bench, sanitize.Replace(string(r.Cell.Engine))))
		if err := cx.Save(path); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
		if cfg.verify {
			back, err := sct.Load(path)
			if err != nil {
				fmt.Fprintln(stderr, "eval:", err)
				return 1
			}
			if _, err := back.Replay(bm.Program); err != nil {
				fmt.Fprintf(stderr, "eval: artifact %s failed verification: %v\n", path, err)
				return 1
			}
		}
		wrote++
	}
	verified := ""
	if cfg.verify {
		verified = ", all replay-verified"
	}
	// In -json mode stdout is a JSONL stream; the summary goes to
	// stderr like the other progress lines.
	dst := stdout
	if cfg.asJSON {
		dst = stderr
	}
	fmt.Fprintf(dst, "wrote %d counterexample artifacts to %s%s\n", wrote, cfg.reproDir, verified)
	return 0
}

// reportContainment summarises the campaign's survivability on
// stderr: the quarantine — cells whose failure was contained without
// taking down the run.
func reportContainment(results []sct.CellResult, stderr io.Writer) {
	if q := sct.Quarantine(results); len(q) > 0 {
		fmt.Fprintf(stderr, "quarantine: %d/%d cells failed:\n", len(q), len(results))
		for _, r := range q {
			fmt.Fprintf(stderr, "  %-24s %-18s %s\n", r.Cell.Bench, r.Cell.Engine, r.Err)
		}
	}
}

// runCampaign executes the benchmark × engine grid and writes one
// result per cell: JSON lines with -json, a readable table otherwise.
// With -resume, cells already present in the given JSONL stream are
// skipped.
func runCampaign(ctx context.Context, selected []bench.Benchmark, engineList string, cfg campaignConfig, stdout, stderr io.Writer) int {
	camp, rend, err := buildCampaign(selected, engineList, cfg.par,
		containment{stall: cfg.stall, cellTO: cfg.cellTO},
		observability{progress: cfg.progress, hbEvery: cfg.hbEvery, flight: cfg.flight, stdout: stdout, stderr: stderr},
		sct.WithBounds(cfg.limit, cfg.steps))
	if err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return 2
	}
	resumed := 0
	if cfg.resume != "" {
		if resumed, err = resumeFromFile(camp, cfg.resume, stderr); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 2
		}
		if rend != nil {
			rend.absorbResumed(resumed)
		}
	}
	emit := func(r sct.CellResult) {
		if r.Err != "" {
			fmt.Fprintf(stdout, "%-24s %-18s ERROR %s\n", r.Cell.Bench, r.Cell.Engine, r.Err)
			return
		}
		suffix := ""
		if s := r.Result.Steal; s != nil {
			suffix = fmt.Sprintf(" steal[w=%d units=%d donated=%d escaped=%d stolen=%d]",
				s.Workers, s.Units, s.Donated, s.Escaped, s.Steals)
		}
		if r.Cancelled {
			if r.Result.Interrupted {
				suffix += " CANCELLED (partial)"
			} else {
				suffix += " CANCELLED (never started)"
			}
		}
		fmt.Fprintf(stdout, "%-24s %-18s schedules=%-7d hbrs=%-6d lazy=%-6d states=%-6d limit=%-5v %dms%s\n",
			r.Cell.Bench, r.Cell.Engine, r.Result.Schedules, r.Result.DistinctHBRs,
			r.Result.DistinctLazyHBRs, r.Result.DistinctStates, r.Result.HitLimit, r.ElapsedMS, suffix)
	}
	if cfg.asJSON {
		emit = sct.JSONLWriter(stdout)
	}
	start := time.Now()
	ran := 0
	var results []sct.CellResult
	for r := range camp.Results(ctx) {
		emit(r)
		recordCellMetrics(r)
		if rend != nil {
			rend.cellDone(r)
		}
		results = append(results, r)
		ran++
	}
	if rend != nil {
		rend.finish()
	}
	if err := camp.Err(); err != nil {
		fmt.Fprintln(stderr, "eval: campaign interrupted:", err)
		return 1
	}
	reportContainment(results, stderr)
	if err := sct.FirstError(results); err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return 1
	}
	note := ""
	if resumed > 0 {
		note = fmt.Sprintf(" (%d resumed)", resumed)
	}
	wall := time.Since(start)
	fmt.Fprintf(stderr, "campaign: %d cells%s in %v (%s)\n",
		ran, note, wall.Round(time.Millisecond), aggregateRates(results, wall))
	return 0
}
