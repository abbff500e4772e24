package campaign

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

// recordingLookup returns a Runner.lookup that appends every name it
// resolves to *names.
func recordingLookup(names *[]string) func(string) (bench.Benchmark, bool) {
	var mu sync.Mutex
	return func(name string) (bench.Benchmark, bool) {
		mu.Lock()
		*names = append(*names, name)
		mu.Unlock()
		return bench.ByName(name)
	}
}

// TestRunnerReusesProgramPerWorker: a worker resolves a benchmark once
// per run of consecutive cells on it, and a cell after a failed one on
// the same benchmark gets a freshly built program.
func TestRunnerReusesProgramPerWorker(t *testing.T) {
	benches := []string{"counter-racy-2x2", "philosophers-3", "counter-racy-2x2"}
	cells := Grid(benches, []EngineSpec{"dfs", "dpor", "random:3"}, 100, 2000)
	var got []string
	r := Runner{Workers: 1, lookup: recordingLookup(&got)}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, benches) {
		t.Errorf("bench-major grid resolved %q, want %q", got, benches)
	}

	const b = "counter-racy-2x2"
	cells = []Cell{
		{Bench: b, Engine: "dfs", ScheduleLimit: 50},
		{Bench: b, Engine: "chaos:panic"},
		{Bench: b, Engine: "dfs", ScheduleLimit: 50},
		{Bench: b, Engine: "chaos:hang"},
		{Bench: b, Engine: "dfs", ScheduleLimit: 50},
		{Bench: b, Engine: "dpor", ScheduleLimit: 50},
	}
	got = nil
	r = Runner{Workers: 1, CellTimeout: 100 * time.Millisecond, lookup: recordingLookup(&got)}
	if results, err = r.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if failed := res.Err != ""; failed != (i == 1 || i == 3) {
			t.Errorf("cell %d (%s): Err = %q", i, res.Cell.Engine, res.Err)
		}
	}
	// Cells 0, 2 and 4 build the program; 1, 3 and 5 reuse their
	// predecessor's.
	if want := []string{b, b, b}; !slices.Equal(got, want) {
		t.Errorf("around failed cells resolved %q, want %q", got, want)
	}
}
