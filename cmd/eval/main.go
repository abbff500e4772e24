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
// The campaign mode runs an arbitrary benchmark × engine grid and
// streams one JSON line per cell:
//
//	eval -fig campaign -engines dpor,lazy-dpor,pdpor:4 -bench coarse -json
//
// Every mode — 2, 3, all, campaign and firstbug — runs the same way:
// the benchmark × engine grid goes through one sct campaign (sct.Grid,
// sct.NewCampaign, Campaign.Results), and the figure and firstbug
// modes then only render the finished cells. Figure 2 is the dpor
// column, Figure 3 the hbr-caching and lazy-hbr-caching columns; -fig
// all runs all three in one campaign. The flags mean the same in every
// mode: -limit 0 is unlimited, -parallel 0 uses every core, and -json
// streams the cells instead of rendering them. A flag the mode does not
// read is a usage error (exit 2): -engines in a figure mode, -md in
// campaign mode, -scatter outside the figure modes, and the checkpoint,
// containment and observability flags outside campaign and firstbug.
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
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/figures"
	"repro/sct"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figureEngines are the engines each figure mode runs; -fig all runs
// both figures' engines in one campaign.
var figureEngines = map[string][]string{
	"2":   {figures.Fig2Engine},
	"3":   {figures.Fig3Regular, figures.Fig3Lazy},
	"all": {figures.Fig2Engine, figures.Fig3Regular, figures.Fig3Lazy},
}

// flags holds every eval flag. Each flag means the same in every mode
// that accepts it.
type flags struct {
	fig, filter, family, engines string
	limit, steps, par            int
	md, quiet, scatter, asJSON   bool
	timeout, stall, cellTO       time.Duration
	resume, reproDir, flight     string
	minimize, verify, progress   bool
	metrics                      string
	hbEvery                      time.Duration
}

// campaignMode reports whether the mode is campaign or firstbug, the
// modes the checkpoint, containment and observability flags serve.
func (f *flags) campaignMode() bool { return f.fig == "campaign" || f.fig == "firstbug" }

// mode names the mode in stderr reports: "campaign", "firstbug",
// "fig 2", "fig 3" or "fig all".
func (f *flags) mode() string {
	if f.campaignMode() {
		return f.fig
	}
	return "fig " + f.fig
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var f flags
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.fig, "fig", "all", `mode: figure "2", "3" or "all", or "campaign" or "firstbug"`)
	fs.IntVar(&f.limit, "limit", 100000, "schedule limit per cell (0 = unlimited; paper: 100000)")
	fs.IntVar(&f.steps, "maxsteps", 2000, "per-execution event bound")
	fs.StringVar(&f.filter, "bench", "", "only benchmarks whose name contains this substring")
	fs.StringVar(&f.family, "family", "", "only benchmarks of this family")
	fs.BoolVar(&f.md, "md", false, "emit markdown tables instead of TSV")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress per-cell progress lines on stderr")
	fs.BoolVar(&f.scatter, "scatter", true, "print the ASCII log-log scatter")
	fs.IntVar(&f.par, "parallel", 0, "cells explored concurrently (0 or less = all cores, 1 = sequential)")
	fs.StringVar(&f.engines, "engines", "", "comma-separated engine specs for campaign/firstbug mode (default: dpor; firstbug default: the registry's canonical grid)")
	fs.BoolVar(&f.asJSON, "json", false, "stream cell results as JSON lines instead of rendering them")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget for the whole run (0 = none)")
	fs.StringVar(&f.resume, "resume", "", "campaign/firstbug mode: skip cells already present in this JSONL result stream")
	fs.StringVar(&f.reproDir, "repro", "", "firstbug mode: write one counterexample artifact per buggy cell into this directory")
	fs.BoolVar(&f.minimize, "minimize", false, "firstbug mode: ddmin-minimize artifacts before writing them")
	fs.BoolVar(&f.verify, "verify", false, "firstbug mode: re-read each written artifact and verify its replay reproduces")
	fs.DurationVar(&f.stall, "stall-timeout", 0, "campaign/firstbug mode: fence threads whose next operation stalls longer than this as diverged (0 = watchdog off)")
	fs.DurationVar(&f.cellTO, "cell-timeout", 0, "campaign/firstbug mode: per-cell wall-clock deadline; late cells are quarantined, not fatal (0 = none)")
	fs.BoolVar(&f.progress, "progress", false, "campaign/firstbug mode: live status line on stderr (cells done/total, schedules/sec, slowest in-flight cell)")
	fs.StringVar(&f.metrics, "metrics", "", `serve expvar counters and net/http/pprof on this address (e.g. "localhost:6060"; ":0" picks a free port)`)
	fs.DurationVar(&f.hbEvery, "heartbeat", 0, "campaign/firstbug mode with -json: mix per-cell heartbeat JSON lines into the result stream at this cadence")
	fs.StringVar(&f.flight, "flight", "", "campaign/firstbug mode: dump a flight-recorder artifact per failing cell into this directory (firstbug: defaults to the -repro directory)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	specs, figMode := figureEngines[f.fig]
	switch {
	case figMode:
	case !f.campaignMode():
		fmt.Fprintf(stderr, "eval: unknown -fig %q\n", f.fig)
		return 2
	case f.engines != "":
		var err error
		if specs, err = sct.ParseSpecs(f.engines); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 2
		}
	case f.fig == "firstbug":
		// The paper-style technique grid, derived from the shared
		// engine registry's canonical ordering.
		specs = sct.DefaultGrid()
	default:
		specs = []string{figures.Fig2Engine}
	}

	var names []string
	for _, b := range bench.All() {
		if f.filter != "" && !strings.Contains(b.Name, f.filter) {
			continue
		}
		if f.family != "" && b.Family != f.family {
			continue
		}
		names = append(names, b.Name)
	}
	// The hostile fault-injection programs are outside the pinned
	// corpus and join a grid only when explicitly named: campaign and
	// firstbug modes with a -bench filter that matches them. The
	// figure modes never see them.
	if f.campaignMode() && f.filter != "" {
		for _, b := range bench.Hostile() {
			if strings.Contains(b.Name, f.filter) && (f.family == "" || b.Family == f.family) {
				names = append(names, b.Name)
			}
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "eval: no benchmarks selected")
		return 2
	}

	if f.engines != "" && figMode {
		fmt.Fprintln(stderr, "eval: -engines applies only to -fig campaign/firstbug; the figure modes run their own engines")
		return 2
	}
	if f.md && f.fig == "campaign" {
		fmt.Fprintln(stderr, "eval: -md applies only to -fig 2/3/all/firstbug; campaign mode prints cell lines")
		return 2
	}
	scatterSet := false
	fs.Visit(func(fl *flag.Flag) { scatterSet = scatterSet || fl.Name == "scatter" })
	if scatterSet && !figMode {
		fmt.Fprintln(stderr, "eval: -scatter applies only to -fig 2/3/all")
		return 2
	}
	if f.resume != "" && !f.campaignMode() {
		fmt.Fprintln(stderr, "eval: -resume applies only to -fig campaign/firstbug")
		return 2
	}
	if (f.reproDir != "" || f.minimize || f.verify) && f.fig != "firstbug" {
		fmt.Fprintln(stderr, "eval: -repro/-minimize/-verify apply only to -fig firstbug")
		return 2
	}
	if (f.stall > 0 || f.cellTO > 0) && !f.campaignMode() {
		fmt.Fprintln(stderr, "eval: -stall-timeout/-cell-timeout apply only to -fig campaign/firstbug")
		return 2
	}
	if (f.progress || f.hbEvery > 0 || f.flight != "") && !f.campaignMode() {
		fmt.Fprintln(stderr, "eval: -progress/-heartbeat/-flight apply only to -fig campaign/firstbug")
		return 2
	}
	if f.hbEvery > 0 && !f.asJSON {
		fmt.Fprintln(stderr, "eval: -heartbeat mixes JSON heartbeat lines into the result stream; it requires -json")
		return 2
	}
	if f.metrics != "" {
		addr, err := serveMetrics(f.metrics)
		if err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 2
		}
		fmt.Fprintf(stderr, "metrics: expvar on http://%s/debug/vars, pprof on http://%s/debug/pprof/\n", addr, addr)
	}

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	results, code := runCampaign(ctx, &f, names, specs, stdout, stderr)
	if code != 0 {
		return code
	}
	if !f.asJSON {
		if err := render(&f, results, stdout); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
	}
	if f.reproDir != "" {
		return writeArtifacts(results, &f, stdout, stderr)
	}
	return 0
}

// runCampaign is the one campaign driver behind every mode: it builds
// the benchmark × engine grid, adopts a -resume checkpoint, streams
// each finished cell to stdout or stderr as the flags ask, and reports
// the run on stderr. It returns every cell (resumed ones included) in
// grid order, or a non-zero exit code: 2 for a bad grid or checkpoint,
// 1 for an interrupted run or a failed cell.
func runCampaign(ctx context.Context, f *flags, names, specs []string, stdout, stderr io.Writer) ([]sct.CellResult, int) {
	camp, rend, err := buildCampaign(f, names, specs, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return nil, 2
	}
	resumed := 0
	if f.resume != "" {
		if resumed, err = resumeFromFile(camp, f.resume, stderr); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return nil, 2
		}
		if rend != nil {
			rend.absorbResumed(resumed)
		}
	}
	emit := cellEmitter(f, rend, stdout, stderr)
	start := time.Now()
	results := camp.Resumed()
	for r := range camp.Results(ctx) {
		emit(r)
		recordCellMetrics(r)
		if rend != nil {
			rend.cellDone(r)
		}
		results = append(results, r)
	}
	if rend != nil {
		rend.finish()
	}
	if err := camp.Err(); err != nil {
		fmt.Fprintf(stderr, "eval: %s interrupted: %v\n", f.mode(), err)
		return nil, 1
	}
	wall := time.Since(start)
	fresh := results[resumed:]
	note := ""
	if resumed > 0 {
		note = fmt.Sprintf(" (%d resumed)", resumed)
	}
	fmt.Fprintf(stderr, "%s: %d cells%s in %v (%s)\n",
		f.mode(), len(fresh), note, wall.Round(time.Millisecond), aggregateRates(fresh, wall))
	slices.SortFunc(results, func(a, b sct.CellResult) int { return a.Index - b.Index })
	reportContainment(results, stderr)
	if err := sct.FirstError(results); err != nil {
		fmt.Fprintln(stderr, "eval:", err)
		return nil, 1
	}
	return results, 0
}

// buildCampaign assembles the campaign over the benchmark × engine
// grid with the per-cell bounds and modes and the runner-level
// containment and observability knobs the flags arm. The returned
// renderer is non-nil when -progress is on.
func buildCampaign(f *flags, names, specs []string, stdout, stderr io.Writer) (*sct.Campaign, *progressRenderer, error) {
	gridOpts := []sct.Option{sct.WithBounds(f.limit, f.steps)}
	if f.fig == "firstbug" {
		gridOpts = append(gridOpts, sct.StopAtFirstBug())
	}
	if f.stall > 0 {
		gridOpts = append(gridOpts, sct.WithStallTimeout(f.stall))
	}
	cells, err := sct.Grid(names, specs, gridOpts...)
	if err != nil {
		return nil, nil, err
	}
	// Workers <= 0 already means GOMAXPROCS.
	campOpts := []sct.Option{sct.WithWorkers(f.par)}
	if f.cellTO > 0 {
		campOpts = append(campOpts, sct.WithCellTimeout(f.cellTO))
	}
	var rend *progressRenderer
	var beats []func(sct.Heartbeat)
	if f.progress {
		rend = newProgressRenderer(stderr, len(cells))
		beats = append(beats, rend.heartbeat)
	}
	if f.hbEvery > 0 {
		beats = append(beats, sct.HeartbeatWriter(stdout))
	}
	if len(beats) > 0 {
		// -progress alone runs the default cadence (hbEvery is 0).
		campOpts = append(campOpts, sct.WithHeartbeat(f.hbEvery, func(h sct.Heartbeat) {
			for _, beat := range beats {
				beat(h)
			}
		}))
	}
	// The firstbug flight recorder defaults to the artifact directory:
	// a quarantined cell's dump lands next to the counterexamples.
	if flight := cmp.Or(f.flight, f.reproDir); flight != "" {
		campOpts = append(campOpts, sct.WithFlightRecorder(flight))
	}
	camp, err := sct.NewCampaign(cells, campOpts...)
	return camp, rend, err
}

// cellEmitter picks how a finished cell is reported: a JSON line on
// stdout with -json, a result line on stdout in campaign mode (the
// lines are its output), otherwise a progress line on stderr unless
// -quiet.
func cellEmitter(f *flags, rend *progressRenderer, stdout, stderr io.Writer) func(sct.CellResult) {
	switch {
	case f.asJSON:
		return sct.JSONLWriter(stdout)
	case f.fig == "campaign":
		return func(r sct.CellResult) { fmt.Fprintln(stdout, cellLine(r)) }
	case f.quiet:
		return func(sct.CellResult) {}
	}
	line := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if rend != nil {
		line = rend.println
	}
	if f.fig != "firstbug" {
		return func(r sct.CellResult) { line("%s", cellLine(r)) }
	}
	return func(r sct.CellResult) {
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

// cellLine renders one cell's counters as a table line.
func cellLine(r sct.CellResult) string {
	if r.Err != "" {
		return fmt.Sprintf("%-24s %-18s ERROR %s", r.Cell.Bench, r.Cell.Engine, r.Err)
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
	return fmt.Sprintf("%-24s %-18s schedules=%-7d hbrs=%-6d lazy=%-6d states=%-6d limit=%-5v %dms%s",
		r.Cell.Bench, r.Cell.Engine, r.Result.Schedules, r.Result.DistinctHBRs,
		r.Result.DistinctLazyHBRs, r.Result.DistinctStates, r.Result.HitLimit, r.ElapsedMS, suffix)
}

// render prints what the mode makes of its finished cells: the
// bug-finding table for firstbug, Figure 2 (the dpor cells) and
// Figure 3 (the caching cells) for the figure modes, nothing for
// campaign, whose cell lines are its output.
func render(f *flags, results []sct.CellResult, stdout io.Writer) error {
	switch f.fig {
	case "campaign":
		return nil
	case "firstbug":
		table := figures.FirstBugFromCells(results)
		fmt.Fprintln(stdout, "== Bug finding: schedules to first bug ==")
		if f.md {
			fmt.Fprint(stdout, figures.MarkdownFirstBug(table, f.limit))
		} else {
			fmt.Fprint(stdout, figures.TSVFirstBug(table))
			fmt.Fprint(stdout, figures.SummaryFirstBug(table))
		}
		return nil
	}
	var fig2, fig3 []sct.CellResult
	for _, r := range results {
		if r.Cell.Engine == figures.Fig2Engine {
			fig2 = append(fig2, r)
		} else {
			fig3 = append(fig3, r)
		}
	}
	if f.fig != "3" {
		rows, err := figures.Fig2FromCells(fig2)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Figure 2: DPOR — #HBRs (x) vs #lazy HBRs (y) ==")
		if f.md {
			fmt.Fprint(stdout, figures.MarkdownFig2(rows, f.limit))
		} else {
			fmt.Fprint(stdout, figures.TSV2(rows))
			s := figures.SummarizeFig2(rows)
			fmt.Fprintf(stdout, "summary: %d/%d below diagonal; %d of %d unique HBRs (%.0f%%) redundant across them\n",
				s.BelowDiagonal, s.Benchmarks, s.RedundantBelow, s.HBRsBelow, s.RedundantPct())
		}
		if f.scatter {
			fmt.Fprint(stdout, figures.Scatter(figures.Fig2Points(rows), 72, 24, "#HBRs", "#lazy HBRs"))
		}
		fmt.Fprintln(stdout)
	}
	if f.fig != "2" {
		rows, err := figures.Fig3FromCells(fig3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Figure 3: HBR caching (x) vs lazy HBR caching (y) — #lazy HBRs ==")
		if f.md {
			fmt.Fprint(stdout, figures.MarkdownFig3(rows, f.limit))
		} else {
			fmt.Fprint(stdout, figures.TSV3(rows))
			s := figures.SummarizeFig3(rows)
			fmt.Fprintf(stdout, "summary: lazy caching ahead on %d/%d benchmarks (+%d lazy HBRs, +%.0f%%); regular ahead on %d (must be 0)\n",
				s.LazyWins, s.Benchmarks, s.ExtraLazyHBRs, s.ExtraPct(), s.RegularWins)
		}
		if f.scatter {
			fmt.Fprint(stdout, figures.Scatter(figures.Fig3Points(rows), 72, 24, "HBR caching #lazy HBRs", "lazy caching #lazy HBRs"))
		}
	}
	return nil
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

// writeArtifacts captures (and optionally minimizes and verifies) one
// counterexample artifact per buggy cell.
func writeArtifacts(results []sct.CellResult, f *flags, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(f.reproDir, 0o755); err != nil {
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
		if f.minimize {
			stats, err := cx.Minimize()
			if err != nil {
				fmt.Fprintln(stderr, "eval:", err)
				return 1
			}
			fmt.Fprintf(stderr, "minimized %s/%s: %d→%d choices, %d→%d preemptions (%d replays)\n",
				r.Cell.Bench, r.Cell.Engine, stats.OriginalChoices, stats.MinChoices,
				stats.OriginalPreemptions, stats.MinPreemptions, stats.Replays)
		}
		path := filepath.Join(f.reproDir, fmt.Sprintf("%s__%s.json", r.Cell.Bench, sanitize.Replace(string(r.Cell.Engine))))
		if err := cx.Save(path); err != nil {
			fmt.Fprintln(stderr, "eval:", err)
			return 1
		}
		if f.verify {
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
	if f.verify {
		verified = ", all replay-verified"
	}
	// In -json mode stdout is a JSONL stream; the summary goes to
	// stderr like the other progress lines.
	dst := stdout
	if f.asJSON {
		dst = stderr
	}
	fmt.Fprintf(dst, "wrote %d counterexample artifacts to %s%s\n", wrote, f.reproDir, verified)
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
