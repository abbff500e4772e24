package sct_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/sct"
)

func testGrid(t *testing.T, opts ...sct.Option) []sct.Cell {
	t.Helper()
	opts = append([]sct.Option{sct.WithBounds(300, 2000)}, opts...)
	cells, err := sct.Grid(
		[]string{"counter-racy-2x2", "philosophers-2"},
		[]string{"dfs", "dpor", "random:7"},
		opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestGridBuildsCells: the grid carries bounds and modes into every
// cell and validates engine specs up front.
func TestGridBuildsCells(t *testing.T) {
	cells := testGrid(t, sct.StopAtFirstBug())
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	for _, c := range cells {
		if c.ScheduleLimit != 300 || c.MaxSteps != 2000 || !c.StopAtFirstBug {
			t.Errorf("cell lost its options: %+v", c)
		}
	}
	if _, err := sct.Grid([]string{"a"}, []string{"bogus"}); err == nil {
		t.Error("bogus engine spec accepted")
	}
	if _, err := sct.Grid(nil, []string{"dfs"}); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := sct.Grid([]string{"a"}, nil); err == nil {
		t.Error("empty engine list accepted")
	}
	if _, err := sct.Grid([]string{"a"}, []string{"dfs"}, sct.WithScheduleLimit(-1)); err == nil {
		t.Error("invalid option accepted")
	}
}

// TestCampaignStreams: Results yields every cell exactly once with
// grid-consistent indexes, in completion order.
func TestCampaignStreams(t *testing.T) {
	cells := testGrid(t)
	camp, err := sct.NewCampaign(cells, sct.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]sct.CellResult{}
	for r := range camp.Results(context.Background()) {
		if _, dup := seen[r.Index]; dup {
			t.Errorf("index %d yielded twice", r.Index)
		}
		seen[r.Index] = r
	}
	if err := camp.Err(); err != nil {
		t.Fatalf("campaign error: %v", err)
	}
	if len(seen) != len(cells) {
		t.Fatalf("streamed %d results, want %d", len(seen), len(cells))
	}
	for i, c := range cells {
		r, ok := seen[i]
		if !ok {
			t.Errorf("cell %d never streamed", i)
			continue
		}
		if r.Cell != c {
			t.Errorf("cell %d streamed with wrong identity: %+v vs %+v", i, r.Cell, c)
		}
		if r.Err != "" || r.Result.Schedules == 0 {
			t.Errorf("cell %d: %+v", i, r)
		}
	}
}

// TestParseSpecs: the comma-list grammar behind -engines flags.
func TestParseSpecs(t *testing.T) {
	specs, err := sct.ParseSpecs("dfs, dpor ,random:3")
	if err != nil || len(specs) != 3 || specs[1] != "dpor" {
		t.Errorf("ParseSpecs = %v, %v", specs, err)
	}
	if _, err := sct.ParseSpecs(" , "); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := sct.ParseSpecs("dfs,bogus"); err == nil {
		t.Error("unknown spec in list accepted")
	}
}

// TestCampaignMatchesRun: campaign cells, which reuse a worker's
// built program across consecutive cells on one benchmark, report the
// same Result as a separate sct.Run per cell, with one worker and with
// four. The grid is the default one without its parallel engines,
// whose first-bug schedule depends on timing.
func TestCampaignMatchesRun(t *testing.T) {
	var specs []string
	for _, info := range sct.Engines() {
		if !info.Parallel {
			specs = append(specs, info.Grid...)
		}
	}
	benches := []string{"counter-racy-2x2", "philosophers-3", "chan-lost-wakeup", "bank-global-3", "hostile-panic"}
	cells, err := sct.Grid(benches, specs, sct.WithScheduleLimit(200), sct.StopAtFirstBug())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sct.Result, len(cells))
	for i, c := range cells {
		bm, ok := bench.ByName(c.Bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", c.Bench)
		}
		rep, err := sct.Run(context.Background(), bm.Program, string(c.Engine),
			sct.WithScheduleLimit(200), sct.StopAtFirstBug())
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Bench, c.Engine, err)
		}
		want[i] = rep.Result
	}
	for _, workers := range []int{1, 4} {
		camp, err := sct.NewCampaign(cells, sct.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for r := range camp.Results(context.Background()) {
			n++
			if r.Err != "" {
				t.Errorf("workers=%d %s/%s: %s", workers, r.Cell.Bench, r.Cell.Engine, r.Err)
			} else if !reflect.DeepEqual(r.Result, want[r.Index]) {
				t.Errorf("workers=%d %s/%s:\ncampaign %+v\n     run %+v",
					workers, r.Cell.Bench, r.Cell.Engine, r.Result, want[r.Index])
			}
		}
		if n != len(cells) {
			t.Errorf("workers=%d: %d results, want %d", workers, n, len(cells))
		}
	}
}

// TestCampaignSingleShot: the campaign runs once; re-iterating yields
// nothing instead of silently re-exploring the grid.
func TestCampaignSingleShot(t *testing.T) {
	camp, err := sct.NewCampaign(testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	seq := camp.Results(context.Background())
	n := 0
	for range seq {
		n++
	}
	if n == 0 {
		t.Fatal("first iteration yielded nothing")
	}
	for range seq {
		t.Fatal("re-iterating the sequence re-ran the campaign")
	}
	for range camp.Results(context.Background()) {
		t.Fatal("second Results call re-ran the campaign")
	}
}

// TestCampaignEarlyBreak: breaking out of the iterator cancels the
// remaining work without deadlocking or leaking the runner.
func TestCampaignEarlyBreak(t *testing.T) {
	camp, err := sct.NewCampaign(testGrid(t), sct.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range camp.Results(context.Background()) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("yielded %d results after break, want 1", n)
	}
	if err := camp.Err(); err != nil {
		t.Errorf("consumer-driven stop reported an error: %v", err)
	}
}

// TestCampaignResumeSkipsDoneCells: a saved JSONL stream
// checkpoint-resumes a campaign; only the missing cells run, and
// Resumed carries the adopted results re-indexed to the grid.
func TestCampaignResumeSkipsDoneCells(t *testing.T) {
	cells := testGrid(t)

	// First run: complete, checkpointed to JSONL.
	full, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	w := sct.JSONLWriter(&checkpoint)
	var firstRun []sct.CellResult
	for r := range full.Results(context.Background()) {
		firstRun = append(firstRun, r)
		w(r)
	}
	if len(firstRun) != len(cells) {
		t.Fatalf("first run streamed %d cells", len(firstRun))
	}

	// Drop two lines from the checkpoint to simulate an interrupted
	// run, then resume.
	lines := strings.SplitAfter(checkpoint.String(), "\n")
	partial := strings.Join(lines[:len(lines)-3], "")
	resumed, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	n, err := resumed.Resume(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(cells)-2 {
		t.Fatalf("Resume adopted %d cells, want %d", n, len(cells)-2)
	}
	ran := 0
	got := map[int]sct.CellResult{}
	for r := range resumed.Results(context.Background()) {
		ran++
		got[r.Index] = r
	}
	if ran != 2 {
		t.Fatalf("resumed campaign re-ran %d cells, want 2", ran)
	}
	for _, r := range resumed.Resumed() {
		if _, dup := got[r.Index]; dup {
			t.Errorf("cell %d both resumed and re-run", r.Index)
		}
		got[r.Index] = r
	}
	if len(got) != len(cells) {
		t.Fatalf("resumed + streamed cover %d cells, want %d", len(got), len(cells))
	}
	// Deterministic engines: the union must agree with the first run
	// cell by cell.
	for _, orig := range firstRun {
		r := got[orig.Index]
		if r.Cell != orig.Cell || r.Result.Schedules != orig.Result.Schedules ||
			r.Result.DistinctHBRs != orig.Result.DistinctHBRs {
			t.Errorf("cell %d diverged across resume:\n got %+v\nwant %+v", orig.Index, r, orig)
		}
	}

	// A fully covered campaign yields nothing.
	done, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.Resume(strings.NewReader(checkpoint.String())); err != nil {
		t.Fatal(err)
	}
	for r := range done.Results(context.Background()) {
		t.Errorf("fully resumed campaign ran cell %+v", r.Cell)
	}
}

// TestCampaignResumeIgnoresUnfinishedCells: cancelled or failed cells
// in the checkpoint are re-run, not adopted, and truncated or corrupt
// lines — the signature of a run killed mid-write — are skipped
// instead of rejecting the whole checkpoint.
func TestCampaignResumeIgnoresUnfinishedCells(t *testing.T) {
	cells := testGrid(t)
	camp, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	w := sct.JSONLWriter(&checkpoint)
	w(sct.CellResult{Index: 0, Cell: cells[0], Cancelled: true})
	w(sct.CellResult{Index: 1, Cell: cells[1], Err: "boom"})
	n, err := camp.Resume(&checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Resume adopted %d unfinished cells", n)
	}

	// One good line, one corrupt middle line, one truncated tail:
	// the good cell is adopted, the rest re-run.
	var dirty bytes.Buffer
	sct.JSONLWriter(&dirty)(sct.CellResult{Index: 2, Cell: cells[2]})
	dirty.WriteString("not json at all\n")
	full := dirty.Len()
	sct.JSONLWriter(&dirty)(sct.CellResult{Index: 3, Cell: cells[3]})
	dirty.Truncate(full + (dirty.Len()-full)/2) // kill mid-write
	n, err = camp.Resume(&dirty)
	if err != nil {
		t.Fatalf("dirty checkpoint rejected: %v", err)
	}
	if n != 1 {
		t.Fatalf("Resume adopted %d cells from dirty checkpoint, want 1", n)
	}
}

// TestOldCheckpointStillLoads: a checkpoint line written before cells
// ran exactly once still carries "attempts" and "attempt_ms"; both
// Resume and ReadResults ignore those fields and keep the cell.
func TestOldCheckpointStillLoads(t *testing.T) {
	const old = `{"index":0,"cell":{"bench":"counter-racy-2x2","engine":"dfs","schedule_limit":300,"max_steps":2000},` +
		`"result":{"Program":"counter-racy-2x2","Engine":"dfs","Schedules":70},"elapsed_ms":7,"attempts":2,"attempt_ms":[3,4]}` + "\n"
	cells := testGrid(t)
	camp, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := camp.Resume(strings.NewReader(old)); err != nil || n != 1 {
		t.Fatalf("Resume of an old-format line: adopted %d, err %v; want 1, nil", n, err)
	}
	if got := camp.Resumed(); got[0].Cell != cells[0] || got[0].Result.Schedules != 70 {
		t.Errorf("adopted %+v, want cell %+v with 70 schedules", got[0], cells[0])
	}
	results, err := sct.ReadResults(strings.NewReader(old))
	if err != nil || len(results) != 1 {
		t.Fatalf("ReadResults of an old-format line: %d results, err %v", len(results), err)
	}
	if results[0].Cell != cells[0] || results[0].Result.Schedules != 70 || results[0].ElapsedMS != 7 {
		t.Errorf("read %+v, want cell %+v with 70 schedules in 7ms", results[0], cells[0])
	}
}

// TestNewCampaignValidation: bad cells and bad options fail at
// construction, not mid-run.
func TestNewCampaignValidation(t *testing.T) {
	if _, err := sct.NewCampaign(nil); err == nil {
		t.Error("empty campaign accepted")
	}
	bad := []sct.Cell{{Bench: "counter-racy-2x2", Engine: "bogus"}}
	if _, err := sct.NewCampaign(bad); err == nil {
		t.Error("bogus cell spec accepted")
	}
	ok := []sct.Cell{{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 10}}
	if _, err := sct.NewCampaign(ok, sct.WithScheduleLimit(-1)); err == nil {
		t.Error("invalid option accepted")
	}
}

// TestCampaignCancelledContext: ending the context early flushes the
// remaining cells as Cancelled markers and reports the cause.
func TestCampaignCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	camp, err := sct.NewCampaign(testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	n, cancelled := 0, 0
	for r := range camp.Results(ctx) {
		n++
		if r.Cancelled {
			cancelled++
		}
	}
	if n == 0 {
		t.Fatal("cancelled campaign streamed nothing (cells must flush as markers)")
	}
	if cancelled != n {
		t.Errorf("%d of %d cells not marked cancelled", n-cancelled, n)
	}
	if camp.Err() == nil {
		t.Error("cancelled campaign reports no error")
	}
}
