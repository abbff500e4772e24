package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engines"
	"repro/internal/explore"
	"repro/internal/model"
)

// TestObserverDoesNotPerturbResults pins the tentpole's no-perturbation
// contract: for every engine in the canonical grid × both backend
// sides (the program as given, and wrapped in model.Opaque to force
// replay), running with full telemetry armed (shared counters, a
// tight-cadence observer and a flight recorder) yields a Result
// byte-identical to a bare run, and the final counters agree with the
// Result and name the backend the cursor picked: the samplers replay
// on both sides. Steal stats are zeroed before comparison — work
// distribution is timing-dependent by design, with or without
// telemetry.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	for _, spec := range engines.DefaultGrid() {
		for _, backend := range []string{"undo", "replay"} {
			spec, backend := spec, backend
			t.Run(spec+"/"+backend, func(t *testing.T) {
				t.Parallel()
				// Sequential engines get a racy program under a limit;
				// parallel ones exhaust a tiny bug-free space so the
				// merged Result is independent of worker timing.
				name, limit := "counter-racy-2x2", 400
				if strings.HasPrefix(spec, "pdpor") {
					name, limit = "coarse-shared-2", 0
				}
				bm, ok := bench.ByName(name)
				if !ok {
					t.Fatalf("missing benchmark %s", name)
				}
				src, want := bm.Program, backend
				if backend == "replay" {
					src = model.Opaque(src)
				}
				switch strings.SplitN(spec, ":", 2)[0] {
				case "random", "pct", "pos":
					want = "replay"
				}
				run := func(observe bool) (explore.Result, *explore.Counters, int) {
					eng, err := engines.Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					opt := explore.Options{ScheduleLimit: limit, MaxSteps: 2000}
					var ctr *explore.Counters
					var mu sync.Mutex
					snaps := 0
					if observe {
						ctr = explore.NewCounters()
						opt.Counters = ctr
						opt.Observer = &explore.Observer{
							EverySchedules: 16,
							OnProgress: func(explore.Progress) {
								mu.Lock()
								snaps++
								mu.Unlock()
							},
						}
						opt.Flight = explore.NewFlightRecorder(8)
					}
					res := eng.Explore(src, opt)
					return res, ctr, snaps
				}
				plain, _, _ := run(false)
				observed, ctr, snaps := run(true)
				plain.Steal, observed.Steal = nil, nil
				if !reflect.DeepEqual(plain, observed) {
					t.Errorf("telemetry perturbed the result:\n bare=%+v\n observed=%+v", plain, observed)
				}
				if snaps == 0 {
					t.Error("observer never fired")
				}
				if got := int(ctr.Schedules.Load()); got != observed.Schedules {
					t.Errorf("Counters.Schedules = %d, Result.Schedules = %d", got, observed.Schedules)
				}
				if got := ctr.Events.Load(); got != observed.Events {
					t.Errorf("Counters.Events = %d, Result.Events = %d", got, observed.Events)
				}
				if got := int(ctr.Terminals.Load()); got != observed.Terminals {
					t.Errorf("Counters.Terminals = %d, Result.Terminals = %d", got, observed.Terminals)
				}
				if got := ctr.Backend(); got != want {
					t.Errorf("Counters.Backend() = %q, want %q", got, want)
				}
			})
		}
	}
}

// TestRunnerHeartbeats: a runner with a tight heartbeat cadence emits
// well-formed heartbeats for in-flight cells, and makeHeartbeat's
// rate/identity fields hold.
func TestRunnerHeartbeats(t *testing.T) {
	// synth-10 at this limit runs for hundreds of milliseconds, so a
	// 1ms cadence produces beats even on a single-core box.
	cells := Grid([]string{"synth-10"}, []EngineSpec{"dfs"}, 100000, 2000)
	var mu sync.Mutex
	var beats []Heartbeat
	r := Runner{
		Workers:        1,
		HeartbeatEvery: time.Millisecond,
		OnHeartbeat: func(h Heartbeat) {
			mu.Lock()
			beats = append(beats, h)
			mu.Unlock()
		},
	}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats from a multi-ms cell at 1ms cadence")
	}
	last := int64(-1)
	for _, h := range beats {
		if h.Type != HeartbeatType {
			t.Fatalf("heartbeat Type = %q, want %q", h.Type, HeartbeatType)
		}
		if h.Index != 0 || h.Bench != "synth-10" || h.Engine != "dfs" {
			t.Fatalf("heartbeat identity wrong: %+v", h)
		}
		if h.Schedules < last {
			t.Fatalf("heartbeat schedules went backwards: %d after %d", h.Schedules, last)
		}
		last = h.Schedules
	}
}

// TestMixedStreamReadJSONL: heartbeat lines interleaved with cell
// results in one stream are skipped by ReadJSONL (and flagged by
// IsTelemetryLine), so a mixed stream parses to exactly the cell
// results.
func TestMixedStreamReadJSONL(t *testing.T) {
	// One long cell (synth-10, guarantees heartbeat lines) and one
	// fast one, so the stream genuinely mixes both record kinds.
	cells := Grid([]string{"synth-10", "counter-racy-2x2"}, []EngineSpec{"dfs"}, 100000, 2000)
	var buf bytes.Buffer
	emit := JSONLWriter(&buf)
	hb := HeartbeatJSONL(&buf)
	r := Runner{
		Workers:        1,
		HeartbeatEvery: time.Millisecond,
		OnResult:       emit,
		OnHeartbeat:    hb,
	}
	if _, err := r.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	hbLines := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && IsTelemetryLine(line) {
			hbLines++
		}
	}
	if hbLines == 0 {
		t.Fatal("stream has no heartbeat lines; cadence too coarse for the test")
	}
	results, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("ReadJSONL returned %d results from the mixed stream, want %d", len(results), len(cells))
	}
	for i, res := range results {
		if res.Cell.Bench == "" || res.Cell != cells[res.Index] {
			t.Errorf("result %d parsed badly from mixed stream: %+v", i, res)
		}
	}
}

// TestFlightDumpOnFailure: with FlightDir set, a failing cell dumps a
// parseable flight artifact (path recorded in the result) and healthy
// cells dump nothing.
func TestFlightDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 200, MaxSteps: 2000},
		{Bench: "counter-racy-2x2", Engine: "chaos:panic", ScheduleLimit: 10, MaxSteps: 2000},
	}
	r := Runner{Workers: 1, FlightDir: dir}
	results, err := r.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	healthy, failed := results[0], results[1]
	if healthy.Err != "" {
		t.Fatalf("healthy cell failed: %q", healthy.Err)
	}
	if healthy.FlightPath != "" {
		t.Errorf("healthy cell recorded a flight dump: %q", healthy.FlightPath)
	}
	if failed.Err == "" {
		t.Fatal("chaos:panic cell did not fail")
	}
	want := FlightPath(dir, failed.Cell)
	if failed.FlightPath != want {
		t.Fatalf("FlightPath = %q, want %q", failed.FlightPath, want)
	}
	art, err := ReadFlight(failed.FlightPath)
	if err != nil {
		t.Fatal(err)
	}
	if art.Cell != failed.Cell || art.Err != failed.Err {
		t.Errorf("artifact disagrees with the result: %+v vs %+v", art, failed)
	}
	if art.Progress.Program != failed.Cell.Bench {
		t.Errorf("artifact progress names %q, want %q", art.Progress.Program, failed.Cell.Bench)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".flight-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d artifacts, want exactly the failing cell's", len(entries))
	}
	if filepath.Base(want) != entries[0].Name() {
		t.Errorf("artifact name %q, want %q", entries[0].Name(), filepath.Base(want))
	}
}
