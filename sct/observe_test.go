package sct_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/sct"
)

// TestRunWithObserver: snapshots flow from a facade Run, the final
// one agrees with the report, and a disabled observer is simply
// absent (no option, no callback).
func TestRunWithObserver(t *testing.T) {
	var snaps []sct.Progress
	rep, err := sct.Run(context.Background(), panicky(), "dpor",
		sct.WithObserver(sct.Observer{
			EverySchedules: 1,
			OnProgress:     func(p sct.Progress) { snaps = append(snaps, p) },
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("observer never fired")
	}
	final := snaps[len(snaps)-1]
	if final.Schedules != int64(rep.Schedules) {
		t.Errorf("final snapshot schedules = %d, report = %d", final.Schedules, rep.Schedules)
	}
	if final.Program != "panicky" || final.Engine != "dpor" {
		t.Errorf("snapshot identity: %q/%q", final.Program, final.Engine)
	}
}

// TestObservabilityOptionRouting: each observability option is
// accepted exactly where it makes sense and rejected loudly
// everywhere else.
func TestObservabilityOptionRouting(t *testing.T) {
	obs := sct.WithObserver(sct.Observer{OnProgress: func(sct.Progress) {}})
	hb := sct.WithHeartbeat(time.Second, func(sct.Heartbeat) {})
	fl := sct.WithFlightRecorder(t.TempDir())
	cells, err := sct.Grid([]string{"counter-racy-2x2"}, []string{"dfs"}, sct.WithScheduleLimit(10))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sct.Run(context.Background(), panicky(), "dfs", hb); err == nil || !strings.Contains(err.Error(), "WithHeartbeat") {
		t.Errorf("Run accepted WithHeartbeat: %v", err)
	}
	if _, err := sct.Run(context.Background(), panicky(), "dfs", fl); err == nil || !strings.Contains(err.Error(), "WithFlightRecorder") {
		t.Errorf("Run accepted WithFlightRecorder: %v", err)
	}
	for _, tc := range []struct {
		name string
		opt  sct.Option
	}{{"WithObserver", obs}, {"WithHeartbeat", hb}, {"WithFlightRecorder", fl}} {
		if _, err := sct.Grid([]string{"counter-racy-2x2"}, []string{"dfs"}, tc.opt); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("Grid accepted %s: %v", tc.name, err)
		}
	}
	if _, err := sct.NewCampaign(cells, obs); err == nil || !strings.Contains(err.Error(), "WithObserver") {
		t.Errorf("NewCampaign accepted WithObserver: %v", err)
	}
	if _, err := sct.NewCampaign(cells, hb, fl); err != nil {
		t.Errorf("NewCampaign rejected its own observability options: %v", err)
	}

	// Malformed arguments fail at option-compile time.
	if _, err := sct.NewCampaign(cells, sct.WithHeartbeat(-time.Second, func(sct.Heartbeat) {})); err == nil {
		t.Error("negative heartbeat cadence accepted")
	}
	if _, err := sct.NewCampaign(cells, sct.WithHeartbeat(time.Second, nil)); err == nil {
		t.Error("nil heartbeat callback accepted")
	}
	if _, err := sct.NewCampaign(cells, sct.WithFlightRecorder("")); err == nil {
		t.Error("empty flight directory accepted")
	}
	if _, err := sct.Run(context.Background(), panicky(), "dfs", sct.WithObserver(sct.Observer{})); err == nil {
		t.Error("observer with nil OnProgress accepted")
	}
}

// TestCampaignMixedStreamResume is the checkpoint-compatibility test
// for heartbeats: a campaign writing heartbeats and results into ONE
// stream (via HeartbeatWriter + JSONLWriter) must still resume — the
// heartbeat lines are skipped, every completed cell is honoured.
func TestCampaignMixedStreamResume(t *testing.T) {
	grid := func() []sct.Cell {
		// synth-10 runs long enough on any box for a 1ms heartbeat
		// cadence to land lines in the stream.
		cells, err := sct.Grid([]string{"synth-10", "counter-racy-2x2"}, []string{"dfs"},
			sct.WithBounds(100000, 2000))
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}

	var stream bytes.Buffer
	camp, err := sct.NewCampaign(grid(),
		sct.WithWorkers(1),
		sct.WithHeartbeat(time.Millisecond, sct.HeartbeatWriter(&stream)))
	if err != nil {
		t.Fatal(err)
	}
	emit := sct.JSONLWriter(&stream)
	ran := 0
	for r := range camp.Results(context.Background()) {
		emit(r)
		ran++
	}
	if ran != 2 {
		t.Fatalf("campaign ran %d cells, want 2", ran)
	}
	if !strings.Contains(stream.String(), `"type":"heartbeat"`) {
		t.Fatal("stream carries no heartbeat lines; the test needs a longer cell")
	}

	// The mixed stream parses back to exactly the cell results...
	results, err := sct.ReadResults(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("ReadResults parsed %d results from the mixed stream, want 2", len(results))
	}
	// ...and a fresh campaign over the same grid resumes fully from it.
	again, err := sct.NewCampaign(grid())
	if err != nil {
		t.Fatal(err)
	}
	n, err := again.Resume(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Resume honoured %d cells from the mixed stream, want 2", n)
	}
	for range again.Results(context.Background()) {
		t.Fatal("fully resumed campaign re-ran a cell")
	}
}

// panicEngine is an embedder-registered engine whose every search
// panics: a failing cell for the flight-recorder test.
type panicEngine struct{}

func (panicEngine) Name() string { return "custom-panic" }
func (panicEngine) Explore(src sct.Source, opt sct.Options) sct.Result {
	panic("custom-panic: injected fault in " + src.Name())
}

// TestCampaignFlightRecorder: a failing cell in a facade campaign
// leaves a loadable artifact; the healthy cell leaves none.
func TestCampaignFlightRecorder(t *testing.T) {
	registerOnce(sct.EngineInfo{
		Name:    "custom-panic",
		Summary: "panics in every search (flight-recorder test)",
		Build: func(args []string) (sct.Engine, error) {
			return panicEngine{}, nil
		},
	})
	dir := t.TempDir()
	cells := []sct.Cell{
		{Bench: "counter-racy-2x2", Engine: "dfs", ScheduleLimit: 100, MaxSteps: 2000},
		{Bench: "counter-racy-2x2", Engine: "custom-panic", ScheduleLimit: 10, MaxSteps: 2000},
	}
	camp, err := sct.NewCampaign(cells, sct.WithWorkers(1), sct.WithFlightRecorder(dir))
	if err != nil {
		t.Fatal(err)
	}
	var failed sct.CellResult
	for r := range camp.Results(context.Background()) {
		if r.Err != "" {
			failed = r
		}
	}
	if failed.FlightPath == "" {
		t.Fatal("failing cell recorded no flight artifact")
	}
	art, err := sct.ReadFlight(failed.FlightPath)
	if err != nil {
		t.Fatal(err)
	}
	if art.Cell != failed.Cell || art.Err == "" {
		t.Errorf("artifact %+v does not describe the failed cell %+v", art.Cell, failed.Cell)
	}
}

// TestHeartbeatIndexRemapping: with a resumed cell in front, streamed
// heartbeat indices still name grid positions, exactly like results.
func TestHeartbeatIndexRemapping(t *testing.T) {
	cells, err := sct.Grid([]string{"counter-racy-2x2", "synth-10"}, []string{"dfs"},
		sct.WithBounds(100000, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-complete cell 0 so the runner's dense index 0 is grid index 1.
	var checkpoint bytes.Buffer
	pre, err := sct.NewCampaign(cells[:1])
	if err != nil {
		t.Fatal(err)
	}
	emit := sct.JSONLWriter(&checkpoint)
	for r := range pre.Results(context.Background()) {
		emit(r)
	}

	var beats []sct.Heartbeat
	camp, err := sct.NewCampaign(cells,
		sct.WithWorkers(1),
		sct.WithHeartbeat(time.Millisecond, func(h sct.Heartbeat) { beats = append(beats, h) }))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := camp.Resume(bytes.NewReader(checkpoint.Bytes())); err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v; want 1 cell", n, err)
	}
	for range camp.Results(context.Background()) {
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats from the pending synth-10 cell")
	}
	for _, h := range beats {
		if h.Index != 1 || h.Bench != "synth-10" {
			t.Fatalf("heartbeat index %d for %s, want grid index 1 for synth-10", h.Index, h.Bench)
		}
	}
}
