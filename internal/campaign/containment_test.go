package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestChaosCampaignSurvives is the survivability acceptance test: a
// campaign with a panicking cell and a hanging cell completes every
// cell — the hostile ones as structured errors, the healthy ones
// untouched.
func TestChaosCampaignSurvives(t *testing.T) {
	cells := []Cell{
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 500, MaxSteps: 2000},
		{Bench: "counter-racy-2x2", Engine: "chaos:panic", ScheduleLimit: 10, MaxSteps: 2000},
		{Bench: "counter-racy-2x2", Engine: "chaos:hang", ScheduleLimit: 10, MaxSteps: 2000},
		{Bench: "philosophers-3", Engine: "dfs", ScheduleLimit: 500, MaxSteps: 2000},
	}
	r := Runner{Workers: 2, CellTimeout: 300 * time.Millisecond}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("got %d results, want %d", len(results), len(cells))
	}

	panicCell, hangCell := results[1], results[2]
	if panicCell.Err == "" || !strings.Contains(panicCell.Err, "engine panic") {
		t.Errorf("panic cell: Err = %q, want an engine-panic error", panicCell.Err)
	}
	if hangCell.Err == "" || !strings.Contains(hangCell.Err, "deadline") {
		t.Errorf("hang cell: Err = %q, want a deadline error", hangCell.Err)
	}

	// The healthy cells are byte-identical to a run with no hostile
	// cells at all: containment must never leak into neighbours.
	baseline, err := (&Runner{Workers: 2}).Run(context.Background(),
		[]Cell{cells[0], cells[3]})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range []CellResult{results[0], results[3]} {
		if !reflect.DeepEqual(res.Result, baseline[i].Result) {
			t.Errorf("healthy cell %s: result differs from hostile-free run:\n with=%+v\n without=%+v",
				res.Cell.Bench, res.Result, baseline[i].Result)
		}
		if res.Err != "" || res.Cancelled {
			t.Errorf("healthy cell %s: Err=%q Cancelled=%v", res.Cell.Bench, res.Err, res.Cancelled)
		}
	}

	q := Quarantine(results)
	if len(q) != 2 {
		t.Fatalf("quarantine has %d cells, want 2 (panic + hang): %+v", len(q), q)
	}
	if q[0].Cell.Engine != "chaos:panic" || q[1].Cell.Engine != "chaos:hang" {
		t.Errorf("quarantine order wrong: %s, %s", q[0].Cell.Engine, q[1].Cell.Engine)
	}
}

// TestCellTimeoutReportsPartialResult: an engine that respects
// cancellation returns its partial counters, and the cell reports a
// structured timeout error rather than a bare cancellation.
func TestCellTimeoutReportsPartialResult(t *testing.T) {
	cells := []Cell{
		{Bench: "counter-racy-2x2", Engine: "chaos:stall", ScheduleLimit: 10, MaxSteps: 2000},
	}
	r := Runner{Workers: 1, CellTimeout: 50 * time.Millisecond}
	start := time.Now()
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalling cell held the campaign for %v", elapsed)
	}
	res := results[0]
	if res.Err == "" || !strings.Contains(res.Err, "cell timeout") {
		t.Fatalf("Err = %q, want a cell-timeout error", res.Err)
	}
	if res.Cancelled {
		t.Error("a per-cell deadline is not a campaign cancellation")
	}
}

// TestZeroValueRunnerKeepsLegacyBehaviour: without containment knobs,
// a healthy cell runs to completion with no error.
func TestZeroValueRunnerKeepsLegacyBehaviour(t *testing.T) {
	cells := []Cell{
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 100, MaxSteps: 2000},
	}
	results, err := (&Runner{}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != "" || results[0].Result.Schedules == 0 {
		t.Fatalf("zero-value runner: Err=%q Schedules=%d", results[0].Err, results[0].Result.Schedules)
	}
}

// flushCountingWriter records Flush/Sync calls interleaved with
// writes, standing in for a *bufio.Writer over an *os.File.
type flushCountingWriter struct {
	bytes.Buffer
	flushes, syncs int
}

func (w *flushCountingWriter) Flush() error { w.flushes++; return nil }
func (w *flushCountingWriter) Sync() error  { w.syncs++; return nil }

// TestJSONLWriterFlushesEveryCell: the stream is durable after every
// result, not only at campaign end.
func TestJSONLWriterFlushesEveryCell(t *testing.T) {
	w := &flushCountingWriter{}
	emit := JSONLWriter(w)
	emit(CellResult{Cell: Cell{Bench: "a", Engine: "dfs"}})
	if w.flushes != 1 || w.syncs != 1 {
		t.Fatalf("after one cell: flushes=%d syncs=%d, want 1/1", w.flushes, w.syncs)
	}
	emit(CellResult{Cell: Cell{Bench: "b", Engine: "dfs"}})
	if w.flushes != 2 || w.syncs != 2 {
		t.Fatalf("after two cells: flushes=%d syncs=%d, want 2/2", w.flushes, w.syncs)
	}
}

// TestReadJSONLTruncatedTail: a stream whose final line was cut by a
// crash yields the complete prefix plus ErrTruncatedTail; garbage
// mid-stream stays a hard error.
func TestReadJSONLTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	emit := JSONLWriter(&buf)
	emit(CellResult{Index: 0, Cell: Cell{Bench: "a", Engine: "dfs"}})
	emit(CellResult{Index: 1, Cell: Cell{Bench: "b", Engine: "dfs"}})
	whole := buf.String()

	// Cut the final line mid-JSON.
	cut := whole[:len(whole)-10]
	got, err := ReadJSONL(strings.NewReader(cut))
	if !errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("err = %v, want ErrTruncatedTail", err)
	}
	if len(got) != 1 || got[0].Cell.Bench != "a" {
		t.Fatalf("prefix = %+v, want the one complete result", got)
	}

	// The intact stream parses clean.
	if got, err := ReadJSONL(strings.NewReader(whole)); err != nil || len(got) != 2 {
		t.Fatalf("intact stream: %v, %d results", err, len(got))
	}

	// Garbage followed by a valid line is corruption, not truncation.
	bad := "{\"cell\":{\"bench\":\"a\",\"eng" + "\n" + strings.SplitAfter(whole, "\n")[0]
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil || errors.Is(err, ErrTruncatedTail) {
		t.Fatalf("mid-stream corruption err = %v, want a hard error", err)
	}
}
