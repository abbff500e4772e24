package campaign

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/explore"
)

// TestRunnerGrid: a small benchmark × engine grid runs to completion,
// results come back in input order, and every invariant holds.
func TestRunnerGrid(t *testing.T) {
	engines := []EngineSpec{"dfs", "dpor", "random:7"}
	cells := Grid([]string{"counter-racy-2x2", "philosophers-3"}, engines, 500, 2000)
	var streamed []CellResult
	r := Runner{Workers: 4, OnResult: func(res CellResult) { streamed = append(streamed, res) }}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) || len(streamed) != len(cells) {
		t.Fatalf("got %d results, %d streamed, want %d", len(results), len(streamed), len(cells))
	}
	for i, res := range results {
		if res.Index != i || res.Cell != cells[i] {
			t.Errorf("result %d out of order: index=%d cell=%+v", i, res.Index, res.Cell)
		}
		if res.Result.Schedules == 0 {
			t.Errorf("cell %d explored nothing", i)
		}
	}
}

// TestRunnerCellErrors: bad benchmarks and bad engine specs fail their
// own cell without aborting the campaign.
func TestRunnerCellErrors(t *testing.T) {
	cells := []Cell{
		{Bench: "no-such-benchmark", Engine: "dfs", ScheduleLimit: 10},
		{Bench: "counter-racy-2x2", Engine: "bogus-engine", ScheduleLimit: 10},
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 10, MaxSteps: 2000},
	}
	results, err := (&Runner{Workers: 2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == "" || !strings.Contains(results[0].Err, "unknown benchmark") {
		t.Errorf("cell 0: want unknown-benchmark error, got %q", results[0].Err)
	}
	if results[1].Err == "" || !strings.Contains(results[1].Err, "engine spec") {
		t.Errorf("cell 1: want engine-spec error, got %q", results[1].Err)
	}
	if results[2].Err != "" {
		t.Errorf("cell 2 unexpectedly failed: %q", results[2].Err)
	}
	if FirstError(results) == nil {
		t.Error("FirstError missed the failures")
	}
}

// TestRunnerContextDeadline: an expired context stops the campaign
// early and reports it.
func TestRunnerContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cells := Grid([]string{"counter-racy-2x2"}, []EngineSpec{"dfs"}, 0, 2000)
	_, err := (&Runner{Workers: 1}).Run(ctx, cells)
	if err == nil {
		t.Fatal("want a context error from an expired deadline")
	}
}

// TestRunnerStreamMatchesRun: Stream hands every cell to OnResult
// exactly once, with the result Run returns at that cell's index.
func TestRunnerStreamMatchesRun(t *testing.T) {
	cells := Grid([]string{"counter-racy-2x2", "philosophers-3"}, []EngineSpec{"dfs", "dpor"}, 0, 2000)
	want, err := (&Runner{Workers: 2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*CellResult, len(cells))
	r := Runner{Workers: 2, OnResult: func(res CellResult) {
		if got[res.Index] != nil {
			t.Errorf("cell %d streamed twice", res.Index)
		}
		got[res.Index] = &res
	}}
	if err := r.Stream(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil {
			t.Fatalf("cell %d never streamed", i)
		}
		if res.Cell != want[i].Cell || res.Err != want[i].Err || res.Result.Schedules != want[i].Result.Schedules {
			t.Errorf("cell %d: streamed %+v, Run returned %+v", i, *res, want[i])
		}
	}
}

// countdownCtx is a context whose Err starts reporting cancellation
// after a fixed number of polls — a deterministic stand-in for "the
// deadline fired mid-cell", independent of wall-clock timing.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	polls int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunnerCancelFlushesPartialCells is the regression test for the
// runner dropping work on cancellation: a context that dies mid-cell
// must still flush that cell's partial counters (marked Cancelled,
// Result.Interrupted), and cells that never started must appear in the
// stream as Cancelled markers — one line per cell, no holes.
func TestRunnerCancelFlushesPartialCells(t *testing.T) {
	cells := Grid([]string{"counter-racy-2x2", "philosophers-3", "ticket-2"}, []EngineSpec{"dfs"}, 0, 2000)
	// The first Err poll happens in the runner's claim loop; the next
	// few at the engine's schedule boundaries, so cell 0 is
	// interrupted after ~4 schedules and cells 1..2 never start.
	ctx := &countdownCtx{Context: context.Background(), polls: 5}
	var streamed []CellResult
	r := Runner{Workers: 1, OnResult: func(res CellResult) { streamed = append(streamed, res) }}
	results, err := r.Run(ctx, cells)
	if err == nil {
		t.Fatal("want a context error from mid-campaign cancellation")
	}
	if len(streamed) != len(cells) {
		t.Fatalf("streamed %d lines, want one per cell (%d)", len(streamed), len(cells))
	}
	first := results[0]
	if !first.Cancelled || !first.Result.Interrupted {
		t.Errorf("mid-cell cancellation not marked: %+v", first)
	}
	if first.Result.Schedules == 0 {
		t.Errorf("mid-cell partial counters were dropped: %+v", first.Result)
	}
	for i, res := range results[1:] {
		if !res.Cancelled {
			t.Errorf("unstarted cell %d not flushed as cancelled: %+v", i+1, res)
		}
		if res.Result.Schedules != 0 {
			t.Errorf("unstarted cell %d reports work: %+v", i+1, res.Result)
		}
		if res.Cell != cells[i+1] || res.Index != i+1 {
			t.Errorf("cancelled marker %d lost its cell identity: %+v", i+1, res)
		}
	}
}

// TestRunnerRejectsInvalidOptions: the runner validates each cell's
// options up front, so a bad grid fails loudly per cell instead of
// producing half-meaningful results.
func TestRunnerRejectsInvalidOptions(t *testing.T) {
	cells := []Cell{
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: -1},
		{Bench: "counter-racy-2x2", Engine: "dfs", MaxSteps: -5},
	}
	results, err := (&Runner{Workers: 1}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err == "" {
			t.Errorf("invalid cell %d was not rejected: %+v", i, res)
		}
	}
}

// TestJSONLRoundTrip: the streaming writer's output parses back into
// the same results.
func TestJSONLRoundTrip(t *testing.T) {
	cells := Grid([]string{"counter-racy-2x2", "pipeline-3"}, []EngineSpec{"dpor"}, 300, 2000)
	var buf bytes.Buffer
	r := Runner{Workers: 2, OnResult: JSONLWriter(&buf)}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(results) {
		t.Fatalf("round trip lost results: %d != %d", len(parsed), len(results))
	}
	for _, p := range parsed {
		orig := results[p.Index]
		if p.Cell != orig.Cell || p.Result.Schedules != orig.Result.Schedules ||
			p.Result.DistinctHBRs != orig.Result.DistinctHBRs {
			t.Errorf("round trip mangled cell %d:\n got %+v\nwant %+v", p.Index, p, orig)
		}
	}
}

// TestEngineSpecGrammar covers the spec grammar's corners (the
// comma-list front end lives on the sct facade as sct.ParseSpecs).
func TestEngineSpecGrammar(t *testing.T) {
	good := []string{
		"dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching", "lazy-hbr-caching",
		"random", "random:9", "pct:3", "pct:2:9", "pos", "pos:9",
		"pb:2", "db:3", "pdpor", "pdpor:2",
	}
	for _, s := range good {
		if _, err := EngineSpec(s).Build(); err != nil {
			t.Errorf("spec %q rejected: %v", s, err)
		}
	}
	bad := []string{"", "nope", "pb:x", "pb:1:bogus", "pb:1:hbr", "pb:1:lazy", "chess-pb:2", "chess-db:2",
		"random:zzz", "pdpor:w", "pct:0", "pct:x", "pos:zzz"}
	for _, s := range bad {
		if _, err := EngineSpec(s).Build(); err == nil {
			t.Errorf("spec %q unexpectedly accepted", s)
		}
	}
}

// TestCellStopAtFirstBug: a first-bug cell stops at the violating
// schedule and reports the schedules-to-first-bug index; the field
// survives the JSONL stream.
func TestCellStopAtFirstBug(t *testing.T) {
	var buf bytes.Buffer
	r := Runner{Workers: 1, OnResult: JSONLWriter(&buf)}
	results, err := r.Run(nil, []Cell{
		{Bench: "philosophers-3", Engine: "dpor", ScheduleLimit: 5000, MaxSteps: 500, StopAtFirstBug: true},
		{Bench: "philosophers-ordered-2", Engine: "dpor", ScheduleLimit: 5000, MaxSteps: 500, StopAtFirstBug: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	buggy, clean := results[0].Result, results[1].Result
	if buggy.FirstViolation == nil || buggy.ViolationKind != "deadlock" {
		t.Fatalf("philosophers-3 first-bug cell found no deadlock: %+v", buggy)
	}
	if buggy.FirstBugSchedule != buggy.Schedules {
		t.Errorf("stopped after %d schedules but the bug was schedule %d", buggy.Schedules, buggy.FirstBugSchedule)
	}
	if clean.FirstViolation != nil || clean.FirstBugSchedule != 0 || clean.HitLimit {
		t.Errorf("deadlock-free benchmark misreported: %+v", clean)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back[0].Cell.StopAtFirstBug || back[0].Result.FirstBugSchedule != buggy.FirstBugSchedule {
		t.Errorf("first-bug fields lost in JSONL round trip: %+v", back[0])
	}
}

// TestParallelFirstBugDeterministicMerge: without StopAtFirstBug the
// parallel engines' merged FirstViolation/FirstBugSchedule come from
// the deterministic unit order, so repeated runs agree with each other
// regardless of worker interleaving.
func TestParallelFirstBugDeterministicMerge(t *testing.T) {
	bm := mustProgram(t, "philosophers-3")
	opt := explore.Options{MaxSteps: 2000}
	base := ParallelDPOR(bm.Program, opt, 4)
	if base.FirstViolation == nil || base.FirstBugSchedule < 1 || base.FirstBugSchedule > base.Schedules {
		t.Fatalf("merged first-bug fields invalid: idx=%d of %d", base.FirstBugSchedule, base.Schedules)
	}
	for rep := 0; rep < 3; rep++ {
		again := ParallelDPOR(bm.Program, opt, 4)
		if again.FirstBugSchedule != base.FirstBugSchedule ||
			!reflect.DeepEqual(again.FirstViolation, base.FirstViolation) {
			t.Fatalf("merged witness not deterministic: idx %d vs %d", again.FirstBugSchedule, base.FirstBugSchedule)
		}
	}
	// With StopAtFirstBug the search winds down early: fewer schedules
	// than the exhaustive run, and a witness is still captured.
	stop := opt
	stop.StopAtFirstBug = true
	early := ParallelDPOR(bm.Program, stop, 4)
	if early.FirstViolation == nil {
		t.Fatal("StopAtFirstBug run lost the witness")
	}
	if early.Schedules > base.Schedules {
		t.Errorf("StopAtFirstBug explored %d schedules, exhaustive run %d", early.Schedules, base.Schedules)
	}
	if early.HitLimit {
		t.Error("first-bug stop must not report HitLimit")
	}
	if err := early.CheckInvariant(); err != nil {
		t.Error(err)
	}
}
