// Package repro's root benchmarks regenerate the paper's evaluation
// artifacts as testing.B benchmarks and measure the framework itself:
//
//   - BenchmarkFig2_* — one per corpus family: the DPOR sweep behind
//     Figure 2 (reports #HBRs, #lazy HBRs and the redundancy the lazy
//     relation exposes, as benchmark metrics).
//   - BenchmarkFig3_* — the caching comparison behind Figure 3
//     (reports #lazy HBRs reached by each caching engine).
//   - BenchmarkEngine_* — ablation across engines on a fixed workload.
//   - BenchmarkSnapshotVsReplay — the exploration-backend ablation.
//   - BenchmarkExecutor / BenchmarkTracker / BenchmarkVClock —
//     microbenchmarks of the hot paths.
//
// Run everything with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/goharness"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/internal/vclock"
	"repro/sct"
)

// benchLimit keeps benchmark iterations snappy; cmd/eval regenerates
// the figures at the paper's full 100,000-schedule limit.
const benchLimit = 2000

// fig2Families picks one representative benchmark per family for the
// per-family Figure 2 benchmarks.
var fig2Families = []string{
	"coarse-disjoint-3x2",
	"coarse-readonly-3",
	"coarse-shared-3",
	"coarse-tail-3x3",
	"bank-global-3",
	"mixed-2",
	"indexer-2",
	"filesystem-2",
	"lastzero-2",
	"account-locked-2",
	"counter-racy-2x2",
	"dcl-2",
	"msgpass-2",
	"peterson-2",
	"philosophers-3",
	"rw-2r1w",
	"ticket-2",
	"prodcons-1p1c-s1-i2",
	"sharded-3t2s",
	"forkjoin-2",
	"pipeline-3",
	"synth-09",
}

func mustBench(b *testing.B, name string) bench.Benchmark {
	b.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("missing benchmark %s", name)
	}
	return bm
}

// BenchmarkFig2 regenerates Figure 2 rows (DPOR; #HBRs vs #lazy HBRs)
// for one representative of every corpus family.
func BenchmarkFig2(b *testing.B) {
	eng := explore.NewDPOR(false)
	for _, name := range fig2Families {
		bm := mustBench(b, name)
		b.Run(name, func(b *testing.B) {
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(bm.Program, explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000})
			}
			b.ReportMetric(float64(last.Schedules), "schedules")
			b.ReportMetric(float64(last.DistinctHBRs), "HBRs")
			b.ReportMetric(float64(last.DistinctLazyHBRs), "lazyHBRs")
			b.ReportMetric(float64(last.DistinctStates), "states")
		})
	}
}

// BenchmarkFig3 regenerates Figure 3 rows (regular vs lazy HBR caching;
// #lazy HBRs within the budget) for the families where the limit binds.
func BenchmarkFig3(b *testing.B) {
	regular := explore.NewHBRCache()
	lazy := explore.NewLazyHBRCache()
	for _, name := range []string{"coarse-disjoint-4x2", "coarse-tail-3x3", "coarse-tail-4x3", "bank-global-4", "peterson-2", "synth-09", "coarse-shared-3"} {
		bm := mustBench(b, name)
		b.Run(name, func(b *testing.B) {
			var reg, lz explore.Result
			for i := 0; i < b.N; i++ {
				reg = regular.Explore(bm.Program, explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000})
				lz = lazy.Explore(bm.Program, explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000})
			}
			b.ReportMetric(float64(reg.DistinctLazyHBRs), "regular-lazyHBRs")
			b.ReportMetric(float64(lz.DistinctLazyHBRs), "lazy-lazyHBRs")
		})
	}
}

// figureSweep runs the full corpus × engines through one sct
// campaign on one worker — the path cmd/eval's figure modes take —
// and returns the cells for figures' builders.
func figureSweep(b *testing.B, limit int, engines ...string) []sct.CellResult {
	b.Helper()
	var names []string
	for _, bm := range bench.All() {
		names = append(names, bm.Name)
	}
	cells, err := sct.Grid(names, engines, sct.WithBounds(limit, 2000))
	if err != nil {
		b.Fatal(err)
	}
	camp, err := sct.NewCampaign(cells, sct.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	var results []sct.CellResult
	for r := range camp.Results(context.Background()) {
		results = append(results, r)
	}
	if err := camp.Err(); err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkFig2FullSweep runs the complete full-corpus Figure 2 sweep
// (at the reduced benchmark limit) and reports the paper's summary
// statistics as metrics.
func BenchmarkFig2FullSweep(b *testing.B) {
	var rows []figures.Fig2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Fig2FromCells(figureSweep(b, benchLimit, figures.Fig2Engine))
		if err != nil {
			b.Fatal(err)
		}
	}
	s := figures.SummarizeFig2(rows)
	b.ReportMetric(float64(s.BelowDiagonal), "below-diagonal")
	b.ReportMetric(s.RedundantPct(), "redundant-pct")
}

// BenchmarkFig3FullSweep runs the complete Figure 3 sweep at a small
// budget and reports the summary statistics.
func BenchmarkFig3FullSweep(b *testing.B) {
	var rows []figures.Fig3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = figures.Fig3FromCells(figureSweep(b, 500, figures.Fig3Regular, figures.Fig3Lazy))
		if err != nil {
			b.Fatal(err)
		}
	}
	s := figures.SummarizeFig3(rows)
	b.ReportMetric(float64(s.LazyWins), "lazy-wins")
	b.ReportMetric(s.ExtraPct(), "extra-pct")
}

// BenchmarkEngine is the ablation across all engines on one fixed
// coarse-locking workload — the design-choice comparison DESIGN.md
// calls out (how much work each reduction saves on the paper's
// motivating pattern).
func BenchmarkEngine(b *testing.B) {
	bm := mustBench(b, "coarse-disjoint-4x2")
	engines := []explore.Engine{
		explore.NewDFS(),
		explore.NewDPOR(false),
		explore.NewDPOR(true),
		explore.NewHBRCache(),
		explore.NewLazyHBRCache(),
		explore.NewLazyDPOR(),
		explore.NewRandomWalk(1),
		explore.NewPCT(1, 3),
		explore.NewPOS(1),
	}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(bm.Program, explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000})
			}
			b.ReportMetric(float64(last.Schedules), "schedules")
			b.ReportMetric(float64(last.Events), "events")
		})
	}
	// The same ablation on a message-passing workload: the mesh's ops
	// all conflict on one shared channel, so engines pay the
	// per-channel total-order dependence rules instead of the lock
	// edges. Appended under chan/ so the existing sub-benchmark names
	// (and the perf trajectory keyed on them) stay stable.
	cbm := mustBench(b, "chan-mesh-2p2c")
	for _, eng := range engines {
		eng := eng
		b.Run("chan/"+eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(cbm.Program, explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000})
			}
			b.ReportMetric(float64(last.Schedules), "schedules")
			b.ReportMetric(float64(last.Events), "events")
		})
	}
}

// BenchmarkFirstBug measures bug-finding cost per technique on a
// deadlocking corpus member: wall-clock ns/op plus the
// schedules-to-first-bug metric the paper's evaluation compares —
// tracked in the BENCH_PR*.json trajectory so sampler regressions
// (a seed change silently inflating schedules-to-bug) are visible.
func BenchmarkFirstBug(b *testing.B) {
	bm := mustBench(b, "philosophers-3")
	engines := []explore.Engine{
		explore.NewDPOR(true),
		explore.NewRandomWalk(1),
		explore.NewPCT(1, 3),
		explore.NewPOS(1),
	}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(bm.Program, explore.Options{
					ScheduleLimit: 20000, MaxSteps: 2000, StopAtFirstBug: true,
				})
			}
			if last.FirstViolation == nil {
				b.Fatalf("%s found no violation", eng.Name())
			}
			b.ReportMetric(float64(last.FirstBugSchedule), "schedules-to-bug")
		})
	}
	// The channel twin: a lost-wakeup deadlock (a TryRecv thief steals
	// the only buffered value from a blocking consumer), measuring
	// schedules-to-bug over message-passing schedules.
	cbm := mustBench(b, "chan-lost-wakeup")
	for _, eng := range engines {
		eng := eng
		b.Run("chan/"+eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(cbm.Program, explore.Options{
					ScheduleLimit: 20000, MaxSteps: 2000, StopAtFirstBug: true,
				})
			}
			if last.FirstViolation == nil {
				b.Fatalf("%s found no violation", eng.Name())
			}
			b.ReportMetric(float64(last.FirstBugSchedule), "schedules-to-bug")
		})
	}
}

// campaignBenches are medium-weight corpus members whose exploration
// dominates cell runtime, so campaign scaling measures real work.
var campaignBenches = []string{
	"coarse-readonly-4",
	"filesystem-2",
	"rw-3r1w",
	"sharded-3t2s",
	"forkjoin-3",
	"lastzero-3",
	"ticket-2",
	"bank-global-3",
	"philosophers-3",
	"synth-03",
}

// BenchmarkCampaign measures the campaign runner's wall-clock scaling
// on a benchmark × engine grid: workers=1 is the sequential baseline;
// on a ≥4-core box the GOMAXPROCS variant must finish the same 40
// cells at least 2× faster (time/op directly demonstrates it).
func BenchmarkCampaign(b *testing.B) {
	engines := []campaign.EngineSpec{"dfs", "dpor", "hbr-caching", "lazy-hbr-caching"}
	cells := campaign.Grid(campaignBenches, engines, benchLimit, 2000)
	for _, workers := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := campaign.Runner{Workers: workers}
				results, err := r.Run(context.Background(), cells)
				if err != nil {
					b.Fatal(err)
				}
				if err := campaign.FirstError(results); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}

// BenchmarkWorkStealDPOR is the headline artifact of the work-stealing
// engine: one exhaustible benchmark explored by sequential DPOR and by
// the work-stealing engine at 1–8 workers. The schedules metric shows
// the reduction is kept — the work-stealing engine matches sequential
// DPOR exactly at every worker count — while ns/op shows the
// wall-clock scaling.
func BenchmarkWorkStealDPOR(b *testing.B) {
	bm := mustBench(b, "synth-10")
	opt := explore.Options{MaxSteps: 2000}
	b.Run("dpor-sequential", func(b *testing.B) {
		var last explore.Result
		for i := 0; i < b.N; i++ {
			last = explore.NewDPOR(false).Explore(bm.Program, opt)
		}
		b.ReportMetric(float64(last.Schedules), "schedules")
	})
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("pdpor-workers=%d", workers), func(b *testing.B) {
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = campaign.ParallelDPOR(bm.Program, opt, workers)
			}
			b.ReportMetric(float64(last.Schedules), "schedules")
			if last.Steal != nil {
				b.ReportMetric(float64(last.Steal.Units), "units")
			}
		})
	}
}

// BenchmarkBacktrackAllocs asserts the O(1)-backtracking contract as
// a bench-smoke gate: with the undo backend a warm backtrack allocates
// nothing, so the stack engines' allocations per explored event are
// only per-search setup amortized over the search (measured 0.02 for
// dfs, 0.03 for dpor and 0.03 for both caching engines, whose digest
// sets add only their doublings; Go-map caches measured 0.04. A fresh
// coroutine snapshot at every redone last step of a thread costs ≈1.1,
// a reintroduced per-step tracker Clone ≥3 slab copies per event, and
// a deep machine snapshot plus tracker Clone per depth ~20). The benchmark fails — not just
// reports — when the bound is exceeded, so the regression cannot
// silently return. Runs in one iteration under `make bench-smoke`.
func BenchmarkBacktrackAllocs(b *testing.B) {
	const maxAllocsPerEvent = 0.25
	bm := mustBench(b, "coarse-tail-3x3")
	opt := explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000}
	engines := []explore.Engine{explore.NewDFS(), explore.NewDPOR(false),
		explore.NewHBRCache(), explore.NewLazyHBRCache(),
		explore.NewPreemptionBounded(2), explore.NewDelayBounded(4)}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			res := eng.Explore(bm.Program, opt)
			if res.Events == 0 {
				b.Fatalf("%s explored no events", eng.Name())
			}
			allocs := testing.AllocsPerRun(1, func() {
				eng.Explore(bm.Program, opt)
			})
			perEvent := allocs / float64(res.Events)
			if perEvent > maxAllocsPerEvent {
				b.Fatalf("%s/undo: %.2f allocs per explored event, want ≤ %.2f — unrecycled snapshots or per-step tracker work is back",
					eng.Name(), perEvent, maxAllocsPerEvent)
			}
			b.ReportMetric(perEvent, "allocs/event")
			for i := 0; i < b.N; i++ {
				eng.Explore(bm.Program, opt)
			}
		})
	}
}

// BenchmarkObserverOverhead gates the telemetry tentpole's zero-cost
// contract under `make bench-smoke`. The disabled subtest explores
// with plain Options — the telemetry hook compiles to one nil check —
// and fails if allocations per explored event exceed the same
// envelope BenchmarkBacktrackAllocs enforces (any per-event telemetry
// allocation on the disabled path breaches it immediately). The
// enabled subtest arms the full stack (shared counters, a
// default-cadence observer, a flight ring) and fails if that costs
// more than a small per-event allocation budget, keeping the armed
// path honest too; its allocs/event lands in the perf trajectory.
func BenchmarkObserverOverhead(b *testing.B) {
	const (
		maxDisabledAllocsPerEvent = 0.25 // BenchmarkBacktrackAllocs envelope
		maxEnabledExtraPerEvent   = 2.0
	)
	bm := mustBench(b, "coarse-tail-3x3")
	plain := explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000}
	res := explore.NewDPOR(false).Explore(bm.Program, plain)
	if res.Events == 0 {
		b.Fatal("probe run explored no events")
	}
	offAllocs := testing.AllocsPerRun(1, func() {
		explore.NewDPOR(false).Explore(bm.Program, plain)
	})
	perEventOff := offAllocs / float64(res.Events)

	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		if perEventOff > maxDisabledAllocsPerEvent {
			b.Fatalf("telemetry-disabled run costs %.2f allocs per explored event, want ≤ %.2f — the disabled path is no longer free",
				perEventOff, maxDisabledAllocsPerEvent)
		}
		b.ReportMetric(perEventOff, "allocs/event")
		for i := 0; i < b.N; i++ {
			explore.NewDPOR(false).Explore(bm.Program, plain)
		}
	})

	armed := plain
	armed.Counters = explore.NewCounters()
	armed.Observer = &explore.Observer{OnProgress: func(explore.Progress) {}}
	armed.Flight = explore.NewFlightRecorder(64)
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		onAllocs := testing.AllocsPerRun(1, func() {
			explore.NewDPOR(false).Explore(bm.Program, armed)
		})
		extra := (onAllocs - offAllocs) / float64(res.Events)
		if extra > maxEnabledExtraPerEvent {
			b.Fatalf("armed telemetry costs %.2f extra allocs per explored event, want ≤ %.1f",
				extra, maxEnabledExtraPerEvent)
		}
		b.ReportMetric(extra, "allocs/event")
		for i := 0; i < b.N; i++ {
			explore.NewDPOR(false).Explore(bm.Program, armed)
		}
	})
}

// BenchmarkSnapshotVsReplay measures the exploration-backend ablation:
// the undo-log backend ("snapshot", name kept stable across the perf
// trajectory), which the stack engines use on snapshottable programs,
// against full replay, forced by hiding the program's snapshots behind
// model.Opaque. A probe run checks that each side resolved to the
// backend it is named for.
func BenchmarkSnapshotVsReplay(b *testing.B) {
	bm := mustBench(b, "counter-racy-2x2")
	for _, mode := range []struct {
		name, backend string
		src           model.Source
	}{
		{"snapshot", "undo", bm.Program},
		{"replay", "replay", model.Opaque(bm.Program)},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := explore.NewDPOR(false)
			opt := explore.Options{ScheduleLimit: benchLimit, MaxSteps: 2000}
			probe := opt
			probe.Counters = explore.NewCounters()
			eng.Explore(mode.src, probe)
			if got := probe.Counters.Backend(); got != mode.backend {
				b.Fatalf("%s resolved to backend %q, want %q", mode.name, got, mode.backend)
			}
			var last explore.Result
			for i := 0; i < b.N; i++ {
				last = eng.Explore(mode.src, opt)
			}
			b.ReportMetric(float64(last.Events)/float64(last.Schedules), "events/schedule")
		})
	}
}

// BenchmarkExecutor measures raw single-schedule execution throughput
// over the interpreter frontend.
func BenchmarkExecutor(b *testing.B) {
	bm := mustBench(b, "coarse-disjoint-4x2")
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		out := exec.Run(bm.Program, exec.FirstEnabled{}, exec.Options{})
		events += len(out.Trace)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkTracker measures the per-event cost of maintaining all
// three happens-before relations plus fingerprints in the shape
// exploration uses: one warm tracker per program with its undo log on,
// fed recorded corpus schedules and rewound with UndoTo(0) after each.
// It reports ns/event and allocs/event over every corpus program's
// schedules under four random seeds.
func BenchmarkTracker(b *testing.B) {
	type workload struct {
		tr     *hb.Tracker
		traces [][]event.Event
	}
	var loads []workload
	events := 0
	for _, bm := range bench.All() {
		p := bm.Program
		w := workload{tr: hb.NewTrackerChans(p.NumThreads(), p.NumVars(), p.NumMutexes(), model.NumChannels(p))}
		w.tr.EnableUndo()
		for seed := int64(1); seed <= 4; seed++ {
			tr := exec.Run(p, exec.NewRandom(seed), exec.Options{}).Trace
			w.traces = append(w.traces, tr)
			events += len(tr)
		}
		loads = append(loads, w)
	}
	pass := func() {
		for _, w := range loads {
			for _, trace := range w.traces {
				for _, ev := range trace {
					w.tr.ApplyFast(ev)
				}
				w.tr.UndoTo(0)
			}
		}
	}
	pass() // warm every tracker's arena and undo log
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/event")
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkVClock measures the clock algebra hot path.
func BenchmarkVClock(b *testing.B) {
	a := vclock.New(8)
	c := vclock.New(8)
	for i := 0; i < 8; i++ {
		a = a.Set(i, int32(i))
		c = c.Set(i, int32(8-i))
	}
	b.Run("join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.Clone().Join(c)
		}
	})
	b.Run("leq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Leq(c)
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Hash()
		}
	})
}

// BenchmarkGoroutineHarness measures the goroutine-harness frontend,
// whose thread bodies run as runtime coroutines, against the
// interpreter on the same logical program. ns/event is the time per
// executed event: the per-event cost of each frontend's handoff. The
// one-shot rows build a machine per run; goroutines-reused runs one
// exec.Runner again and again, resetting its machine between runs as
// the engines do between schedules.
func BenchmarkGoroutineHarness(b *testing.B) {
	run := func(b *testing.B, once func() exec.Outcome) {
		b.ReportAllocs()
		events := 0
		for i := 0; i < b.N; i++ {
			events += len(once().Trace)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
	oneShot := func(src model.Source) func() exec.Outcome {
		return func() exec.Outcome { return exec.Run(src, exec.FirstEnabled{}, exec.Options{}) }
	}
	b.Run("interpreter", func(b *testing.B) { run(b, oneShot(mustBench(b, "coarse-disjoint-2x2").Program)) })
	b.Run("goroutines", func(b *testing.B) { run(b, oneShot(harnessCoarse())) })
	b.Run("goroutines-reused", func(b *testing.B) {
		r := exec.NewRunner(harnessCoarse(), exec.Options{})
		defer r.Close()
		run(b, func() exec.Outcome { return r.Run(exec.FirstEnabled{}) })
	})
}

// BenchmarkCorpusConstruction measures building the full corpus (the
// paper's 79 plus the channel family).
func BenchmarkCorpusConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(bench.All()); got != bench.Count {
			b.Fatalf("corpus size %d", got)
		}
	}
}

// harnessCoarse builds the goroutine-harness twin of
// coarse-disjoint-2x2 for the frontend comparison.
func harnessCoarse() *goharness.Program {
	p := goharness.New("coarse-disjoint-2x2-goroutines").AutoStart()
	g0 := p.Mutex("g")
	cells := []goharness.Var{p.Var("own0"), p.Var("own1")}
	for i := 0; i < 2; i++ {
		i := i
		p.Thread(func(g *goharness.G) {
			g.Lock(g0)
			for k := 0; k < 2; k++ {
				g.Write(cells[i], g.Read(cells[i])+1)
			}
			g.Unlock(g0)
		})
	}
	return p
}

func init() {
	// Sanity: the family list only names real benchmarks, failing
	// fast at benchmark startup rather than mid-run.
	for _, name := range fig2Families {
		if _, ok := bench.ByName(name); !ok {
			panic(fmt.Sprintf("bench_test: unknown family representative %q", name))
		}
	}
}
