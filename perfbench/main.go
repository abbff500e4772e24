// Command perfbench is the repository's benchmark. It runs one named
// workload the way users drive the tester — sct.Grid, then
// sct.NewCampaign(...).Results, then figures.*FromCells, with sct.Run
// and counterexample minimization for bug verdicts — checks every
// cell against known answers, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig2-dpor --seed 1 --seconds 10 --trace 0
//
// Any failed check prints the failures, reports "correct": false and
// exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/sct"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, answersJSON))
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer, answerData []byte) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed for the samplers' engine specs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	writeAnswers := fs.String("write-answers", "", "regenerate the known-answer file at this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeAnswers != "" {
		if err := generateAnswers(*writeAnswers, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	ans, err := parseAnswers(answerData)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &benchRun{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, out: stdout}
	if err := b.measure(ans); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := b.report()
	for _, f := range b.fails {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// benchRun is one invocation: set-up, the timed passes, the checks.
type benchRun struct {
	w      *workload
	seed   int64
	budget time.Duration
	traced bool
	out    io.Writer

	s        *session
	setups   []float64
	plain    []pass
	tracedPs []pass
	heapPeak uint64
	tr       *tracer
	searches []searchTrace
	rt       runtimeCounters
	lad      ladder
	// benchAllMS and byNameMS time one bench.All and one bench.ByName
	// call.
	benchAllMS, byNameMS float64
	fails                []string
}

func (b *benchRun) measure(ans answers) error {
	ctx := context.Background()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		s, err := setup(b.w, b.seed, ans)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, secs(time.Since(start)))
		b.s = s
	}
	if b.traced {
		b.tr = newTracer()
	} else if err := b.measureHeap(ctx); err != nil {
		return err
	}

	// The timed region: whole passes until the budget is spent. A
	// traced run alternates untraced and traced passes so both see the
	// same machine conditions.
	start := time.Now()
	for i := 0; ; i++ {
		traced := b.traced && i%2 == 1
		runtime.GC()
		var before runtimeCounters
		if traced {
			active.Store(b.tr)
			before = readRuntime()
		}
		p, err := b.s.runPass(ctx, traced)
		if traced {
			b.rt = b.rt.add(readRuntime().sub(before))
			active.Store(nil)
			b.searches = append(b.searches, b.tr.take()...)
			b.tracedPs = append(b.tracedPs, p)
		} else {
			b.plain = append(b.plain, p)
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if time.Since(start) >= b.budget && len(b.plain) >= b.minPasses() && (!b.traced || len(b.tracedPs) > 0) {
			break
		}
	}
	if b.traced {
		b.traceLayers()
	}
	b.check(ctx)
	return nil
}

// heapRecheck is how many of the heaviest searches the heap pass
// measures a second time.
const heapRecheck = 3

// measureHeap runs one untimed pass with every engine wrapped in the
// heap probe, before the timed passes retain any results, then probes
// the heaviest searches again. The peak live heap is the set-up's live
// heap plus the most any one search adds.
func (b *benchRun) measureHeap(ctx context.Context) error {
	base := settledHeap()
	probe := newHeapProbe()
	active.Store(&tracer{heap: probe})
	defer active.Store(nil)
	if _, err := b.s.runPass(ctx, true); err != nil {
		return fmt.Errorf("heap pass: %w", err)
	}
	opt := explore.Options{ScheduleLimit: b.w.limit, StopAtFirstBug: b.w.firstBug}
	for _, k := range probe.top(heapRecheck) {
		eng, err := sct.NewEngine(k.spec)
		if err != nil {
			return fmt.Errorf("heap pass: %w", err)
		}
		probe.explore(eng, k.spec, b.s.lookup(k.program), opt)
	}
	b.heapPeak = base + probe.peak()
	return nil
}

// traceLayers measures the layers the campaign does not time itself:
// corpus construction and lookup, and the model/hb ladder over a
// sample of the workload's own recorded schedules.
func (b *benchRun) traceLayers() {
	const reps = 5
	var all, byName []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		bench.All()
		all = append(all, ms(time.Since(start)))
		start = time.Now()
		for _, n := range b.s.names {
			bench.ByName(n)
		}
		byName = append(byName, ms(time.Since(start))/float64(len(b.s.names)))
	}
	b.benchAllMS, b.byNameMS = median(all), median(byName)

	// One traced pass's searches: later passes repeat the same cells.
	first := b.searches[:min(len(b.searches), len(b.tracedPs[0].cells))]
	sample := ladderSample(first, b.s.lookup, 600)
	var ls []ladder
	for i := 0; i < reps; i++ {
		ls = append(ls, runLadder(sample))
	}
	// Keep the repetition with the median step cost.
	sort.Slice(ls, func(i, j int) bool { return ls[i].step < ls[j].step })
	b.lad = ls[len(ls)/2]
}

// check validates every pass, plus the twins against their originals
// and the traced passes against the untraced ones.
func (b *benchRun) check(ctx context.Context) {
	for _, p := range append(append([]pass(nil), b.plain...), b.tracedPs...) {
		b.fails = append(b.fails, b.s.checkPass(p)...)
	}
	if b.w.harness {
		b.fails = append(b.fails, b.s.checkTwins(ctx, b.plain[0])...)
	}
	for _, p := range b.tracedPs {
		b.fails = append(b.fails, samePass(b.plain[0], p)...)
	}
}

func (b *benchRun) attempted() int {
	n := 0
	for _, p := range b.plain {
		n += len(p.cells)
	}
	for _, p := range b.tracedPs {
		n += len(p.cells)
	}
	return n
}

func (b *benchRun) report() report {
	rep := report{Attempted: b.attempted(), Failed: len(b.fails), Metrics: map[string]metric{}}
	rep.Correct = rep.Failed == 0
	put := func(name string, v float64, unit string) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if b.traced {
		b.layerMetrics(put)
	} else {
		b.endToEnd(put)
	}
	b.printReport(rep)
	return rep
}

func passWalls(ps []pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, secs(p.wall))
	}
	return out
}

// verdictGroup is how many consecutive passes one verdict sample is
// the median of: a burst of contention on a shared machine slows the
// cells it hits in one pass, and the median of three leaves it out.
const verdictGroup = 3

// tailSamples is how many verdict samples the tail percentile is
// chosen for. A run makes enough passes to reach this many, so the
// percentile — fixed per workload by its cell count — always has ten or
// more samples beyond.
const tailSamples = 100

// minPasses is how many timed passes a run makes at least.
func (b *benchRun) minPasses() int {
	n := len(b.plain[0].cells)
	return verdictGroup * ((tailSamples + n - 1) / n)
}

// tail returns the verdict tail percentile and its guaranteed sample
// count.
func (b *benchRun) tail() (p float64, samples int) {
	samples = b.minPasses() / verdictGroup * len(b.plain[0].cells)
	return tailPercentile(samples), samples
}

// verdictSamples returns, for every cell and every whole group of
// verdictGroup consecutive passes, the cell's median verdict time in
// the group, in milliseconds.
func verdictSamples(ps []pass) []float64 {
	var out []float64
	for g := 0; g+verdictGroup <= len(ps); g += verdictGroup {
		for i := range ps[g].cells {
			var vs []float64
			for _, p := range ps[g : g+verdictGroup] {
				vs = append(vs, ms(p.cells[i].verdict))
			}
			out = append(out, median(vs))
		}
	}
	return out
}

func (b *benchRun) endToEnd(put func(string, float64, string)) {
	wall := median(passWalls(b.plain))
	p0 := b.plain[0]
	var lazy, toBug, planted, found int
	for _, c := range p0.cells {
		lazy += c.res.DistinctLazyHBRs
		toBug += c.res.FirstBugSchedule
		if a := b.s.answers[c.bench]; len(a.Kinds) > 0 {
			planted++
			if c.res.ViolationKind != "" {
				found++
			}
		}
	}
	verdicts := verdictSamples(b.plain)
	tailP, _ := b.tail()
	put("setup_s", median(b.setups), "s")
	put("wall_s", wall, "s")
	put("lazy_hbrs_per_s", ratio(float64(lazy), wall), "1/s")
	put("verdict_ms_p50", percentile(verdicts, 50), "ms")
	put("verdict_ms_tail", percentile(verdicts, tailP), "ms")
	put("schedules_to_bug", float64(toBug), "count")
	put("bugs_found_frac", ratio(float64(found), float64(planted)), "frac")
	put("cells_ok_frac", 1-ratio(float64(len(b.fails)), float64(b.attempted())), "frac")
	put("peak_heap_mb", float64(b.heapPeak)/(1<<20), "MB")
}

func (b *benchRun) layerMetrics(put func(string, float64, string)) {
	n := float64(len(b.tracedPs))
	wallT := median(passWalls(b.tracedPs))
	wallU := median(passWalls(b.plain))
	put("trace.wall_s", wallT, "s")
	put("trace.overhead_frac", wallT/wallU-1, "frac")

	put("bench.all_ms", b.benchAllMS, "ms")
	put("bench.by_name_ms", b.byNameMS, "ms")

	// Campaign overhead: each streamed cell's interval minus the
	// wrapped Explore time of that cell.
	var busy time.Duration
	var ctr struct{ schedules, events, backtracks, pruned, hits, misses int64 }
	for _, s := range b.searches {
		busy += s.busy
		ctr.schedules += s.counts.Schedules
		ctr.events += s.counts.Events
		ctr.backtracks += s.counts.Backtracks
		ctr.pruned += s.counts.Pruned
		ctr.hits += s.counts.DedupHits
		ctr.misses += s.counts.DedupMisses
	}
	var interval, aggregate, capture, minimize time.Duration
	var hbrs, witnesses, replays, origChoices, minChoices int
	for _, p := range b.tracedPs {
		for _, c := range p.cells {
			interval += c.explore
			hbrs += c.res.DistinctHBRs
			if c.min != nil {
				replays += c.min.Replays
				origChoices += c.min.OriginalChoices
				minChoices += c.min.MinChoices
			}
		}
		aggregate += p.aggregate
		capture += p.capture
		minimize += p.minimize
		witnesses += p.witnesses
	}
	cells := len(b.tracedPs[0].cells)
	if b.w.harness {
		put("campaign.cells", 0, "count")
		put("campaign.overhead_ms_per_cell", 0, "ms")
		put("campaign.overhead_frac", 0, "frac")
	} else {
		put("campaign.cells", float64(cells), "count")
		put("campaign.overhead_ms_per_cell", ms(interval-busy)/n/float64(cells), "ms")
		put("campaign.overhead_frac", ratio(float64(interval-busy), float64(interval)), "frac")
	}

	put("explore.busy_s", secs(busy)/n, "s")
	put("explore.schedules", float64(ctr.schedules)/n, "count")
	put("explore.events", float64(ctr.events)/n, "count")
	put("explore.backtracks", float64(ctr.backtracks)/n, "count")
	put("explore.events_per_s", ratio(float64(ctr.events), secs(busy)), "1/s")
	put("explore.schedules_per_s", ratio(float64(ctr.schedules), secs(busy)), "1/s")
	put("explore.events_per_schedule", ratio(float64(ctr.events), float64(ctr.schedules)), "count")
	put("explore.hbrs_per_schedule", ratio(float64(hbrs), float64(ctr.schedules)), "frac")
	put("explore.pruned_frac", ratio(float64(ctr.pruned), float64(ctr.schedules)), "frac")
	put("explore.dedup_hit_frac", ratio(float64(ctr.hits), float64(ctr.hits+ctr.misses)), "frac")

	for _, fe := range []string{"progdsl", "goharness"} {
		st := b.tr.frontends[fe]
		resumes := st.resumes.Load()
		put(fe+".starts", float64(st.starts.Load())/n, "count")
		put(fe+".resumes", float64(resumes)/n, "count")
		put(fe+".snapshots", float64(st.snapshots.Load())/n, "count")
		put(fe+".busy_s", secs(st.busy())/n, "s")
		put(fe+".ns_per_resume", st.nsPerResume(), "ns")
	}

	b.lad.metrics(put)
	put("repro.capture_ms", ratio(ms(capture), float64(witnesses)), "ms")
	put("repro.minimize_ms", ratio(ms(minimize), float64(witnesses)), "ms")
	put("repro.minimize_replays", ratio(float64(replays), float64(witnesses)), "count")
	put("repro.shrink_frac", 1-ratio(float64(minChoices), float64(origChoices)), "frac")
	if witnesses == 0 {
		put("repro.shrink_frac", 0, "frac")
	}
	put("figures.aggregate_ms", ms(aggregate)/n, "ms")
	put("runtime.gc_cpu_frac", ratio(b.rt.gcCPU, b.rt.totalCPU), "frac")
	put("runtime.alloc_bytes_per_event", ratio(float64(b.rt.allocBytes), float64(ctr.events)), "B/event")
}

// printReport writes the human-readable report: the run's stamp, then
// one line per metric.
func (b *benchRun) printReport(rep report) {
	fmt.Fprintf(b.out, "perfbench workload=%s seed=%d trace=%v go=%s GOMAXPROCS=%d NumCPU=%d passes=%d+%d cells/pass=%d\n",
		b.w.name, b.seed, b.traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		len(b.plain), len(b.tracedPs), len(b.plain[0].cells))
	for _, ps := range [][]pass{b.plain, b.tracedPs} {
		if len(ps) == 0 {
			continue
		}
		fmt.Fprintf(b.out, "pass wall (traced=%v):", ps[0].traced)
		for _, w := range passWalls(ps) {
			fmt.Fprintf(b.out, " %.4f", w)
		}
		fmt.Fprintln(b.out, " s")
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := rep.Metrics[n]
		extra := ""
		if n == "verdict_ms_tail" {
			p, min := b.tail()
			n := len(verdictSamples(b.plain))
			extra = fmt.Sprintf("  (p%g of %d samples, each a cell's median over %d passes, from %d passes; %d beyond; chosen for >= %d)",
				p, n, verdictGroup, len(b.plain), int(float64(n)*(100-p)/100), min)
		}
		fmt.Fprintf(b.out, "%-34s %14.6g %s%s\n", n, m.Value, m.Unit, extra)
	}
}
