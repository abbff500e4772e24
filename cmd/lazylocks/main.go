// Command lazylocks is the single-benchmark front door of the
// systematic concurrency tester (named after the paper's tool):
//
//	lazylocks -list
//	lazylocks -bench philosophers-3 -engine dpor
//	lazylocks -bench counter-racy-2x2 -engine lazy-hbr-caching -limit 100000
//
// It explores the benchmark's schedule space with the chosen engine
// (any registry spec, e.g. "dpor+sleep", "pb:2", "pdpor:4"),
// prints the paper's headline counters (#schedules, #HBRs, #lazy
// HBRs, #states) and, when a safety violation is found, replays and
// prints the violating schedule.
//
// The repro workflow: -save writes the violation as a portable
// counterexample artifact (-minimize ddmin-shrinks it first), and
// -replay re-executes a saved artifact — or a bare internal/trace
// schedule file — verifying it reproduces identically.
//
// The tool runs entirely on the public sct facade.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/trace"
	"repro/sct"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (0 clean, 1 tool error, 2 usage, 3 violation found).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lazylocks", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list benchmarks and exit")
		name     = fs.String("bench", "", "benchmark name (see -list)")
		engine   = fs.String("engine", "dpor", fmt.Sprintf("engine spec: one of %v (plus :args)", sct.EngineNames()))
		limit    = fs.Int("limit", 100000, "schedule limit (0 = unlimited)")
		steps    = fs.Int("maxsteps", 2000, "per-execution event bound")
		firstBug = fs.Bool("firstbug", false, "stop at the first violation and report schedules-to-first-bug")
		printT   = fs.Bool("trace", true, "print the violating trace when one is found")
		save     = fs.String("save", "", "write the violation as a counterexample artifact to this JSON file")
		minimize = fs.Bool("minimize", false, "ddmin-minimize the artifact before saving")
		replay   = fs.String("replay", "", "replay a counterexample artifact (or bare schedule file) instead of exploring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Fprintf(stdout, "%2d %-26s %-16s %s\n", b.ID, b.Name, b.Family, b.Notes)
		}
		return 0
	}
	b, ok := bench.ByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "lazylocks: unknown benchmark %q (use -list)\n", *name)
		return 2
	}
	if *replay != "" {
		return replayFile(b, *replay, *steps, stdout, stderr)
	}
	opts := []sct.Option{sct.WithBounds(*limit, *steps)}
	if *firstBug {
		opts = append(opts, sct.StopAtFirstBug())
	}
	rep, err := sct.Run(context.Background(), b.Program, *engine, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "lazylocks:", err)
		return 1
	}
	r := rep.Result
	fmt.Fprintf(stdout, "benchmark : %s (id %d, %s)\n", b.Name, b.ID, b.Family)
	fmt.Fprintf(stdout, "engine    : %s\n", r.Engine)
	fmt.Fprintf(stdout, "schedules : %d (terminals %d, pruned %d, truncated %d)%s\n",
		r.Schedules, r.Terminals, r.Pruned, r.Truncated, hitLimitNote(r.HitLimit))
	fmt.Fprintf(stdout, "classes   : #HBRs=%d  #lazy HBRs=%d  #states=%d\n",
		r.DistinctHBRs, r.DistinctLazyHBRs, r.DistinctStates)
	fmt.Fprintf(stdout, "safety    : deadlocks=%d assert-failures=%d lock-errors=%d races=%d\n",
		r.Deadlocks, r.AssertFailures, r.LockErrors, r.Races)
	if rep.Violation == nil {
		return 0
	}
	fmt.Fprintf(stdout, "violation : %s (schedule %d)\n", rep.Violation, r.FirstBugSchedule)
	if *save != "" {
		cx, err := rep.Counterexample()
		if err != nil {
			fmt.Fprintln(stderr, "lazylocks:", err)
			return 1
		}
		if *minimize {
			stats, err := cx.Minimize()
			if err != nil {
				fmt.Fprintln(stderr, "lazylocks:", err)
				return 1
			}
			fmt.Fprintf(stdout, "minimized : %d→%d choices, %d→%d preemptions (%d replays)\n",
				stats.OriginalChoices, stats.MinChoices,
				stats.OriginalPreemptions, stats.MinPreemptions, stats.Replays)
		}
		if err := cx.Save(*save); err != nil {
			fmt.Fprintln(stderr, "lazylocks:", err)
			return 1
		}
		fmt.Fprintf(stdout, "saved     : %s\n", *save)
	}
	if *printT {
		fmt.Fprintln(stdout, "trace:")
		for i, ev := range rep.Violation.Outcome.Trace {
			fmt.Fprintf(stdout, "  %3d %v\n", i, ev)
		}
		for _, f := range rep.Violation.Outcome.Failures {
			fmt.Fprintf(stdout, "  failure: %v\n", f)
		}
		for _, race := range rep.Violation.Outcome.Races {
			fmt.Fprintf(stdout, "  race: %v\n", race)
		}
		if rep.Violation.Outcome.Deadlock {
			fmt.Fprintln(stdout, "  deadlock: no enabled thread at end of trace")
		}
	}
	return 3
}

// replayFile loads a counterexample artifact (preferred) or a bare
// trace schedule and re-executes it against the benchmark, verifying
// the reproduction and printing the reproduced trace.
func replayFile(b bench.Benchmark, path string, steps int, stdout, stderr io.Writer) int {
	var out sct.Outcome
	var kind string
	if cx, err := sct.Load(path); err == nil {
		out, err = cx.Replay(b.Program)
		if err != nil {
			fmt.Fprintln(stderr, "lazylocks:", err)
			return 1
		}
		kind = cx.Kind()
		fmt.Fprintf(stdout, "artifact  : %s\n", cx)
	} else {
		f, ferr := os.Open(path)
		if ferr != nil {
			fmt.Fprintln(stderr, "lazylocks:", ferr)
			return 1
		}
		rec, rerr := trace.Read(f)
		f.Close()
		if rerr != nil {
			fmt.Fprintf(stderr, "lazylocks: %s is neither an artifact (%v) nor a schedule (%v)\n", path, err, rerr)
			return 1
		}
		out, rerr = rec.Replay(b.Program, exec.Options{MaxSteps: steps})
		if rerr != nil {
			fmt.Fprintln(stderr, "lazylocks:", rerr)
			return 1
		}
		kind = rec.Kind
	}
	fmt.Fprintf(stdout, "replayed %d events of %s (%s)\n", len(out.Trace), b.Name, kind)
	for i, ev := range out.Trace {
		fmt.Fprintf(stdout, "  %3d %v\n", i, ev)
	}
	if out.Deadlock {
		fmt.Fprintln(stdout, "  deadlock reproduced")
	}
	for _, fl := range out.Failures {
		fmt.Fprintf(stdout, "  failure: %v\n", fl)
	}
	for _, r := range out.Races {
		fmt.Fprintf(stdout, "  race: %v\n", r)
	}
	return 0
}

func hitLimitNote(hit bool) string {
	if hit {
		return "  [schedule limit hit: space not exhausted]"
	}
	return ""
}
