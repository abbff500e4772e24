package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sct"
)

// TestObsSmoke is the CI obs-smoke scenario driven in-process: a short
// campaign with -progress, -heartbeat and -metrics armed must exit
// clean, mix parseable heartbeat lines into the JSON stream, serve
// expvar and pprof over HTTP, and leave a stream that resumes cleanly.
func TestObsSmoke(t *testing.T) {
	args := func(extra ...string) []string {
		// synth-10 at this limit runs long enough that a 1ms heartbeat
		// cadence is guaranteed to land lines in the stream.
		return append([]string{
			"-fig", "campaign",
			"-bench", "synth-10",
			"-engines", "dfs",
			"-limit", "100000",
			"-maxsteps", "2000",
			"-json", "-quiet",
		}, extra...)
	}
	var stdout, stderr bytes.Buffer
	code := run(args("-progress", "-heartbeat", "1ms", "-metrics", "127.0.0.1:0"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}

	// Heartbeat lines are present, well-formed, and invisible to the
	// result reader. Schedules is the work done so far: a beat can land
	// before the first schedule finishes, so a line may read 0, but the
	// count never falls and the cell's work shows in some line.
	stream := stdout.Bytes()
	hbLines := 0
	prevSchedules, sawWork := int64(0), false
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"heartbeat"`)) {
			continue
		}
		hbLines++
		var hb sct.Heartbeat
		if err := json.Unmarshal(line, &hb); err != nil {
			t.Fatalf("heartbeat line does not parse: %v\n%s", err, line)
		}
		if hb.Bench != "synth-10" || hb.Engine != "dfs" || hb.Schedules < 0 {
			t.Errorf("malformed heartbeat: %+v", hb)
		}
		if hb.Schedules < prevSchedules {
			t.Errorf("heartbeat Schedules fell from %d to %d: %+v", prevSchedules, hb.Schedules, hb)
		}
		prevSchedules = hb.Schedules
		sawWork = sawWork || hb.Schedules > 0
	}
	if hbLines == 0 {
		t.Fatal("no heartbeat lines in the -heartbeat 1ms stream")
	}
	if !sawWork {
		t.Errorf("none of %d heartbeat lines reports Schedules > 0", hbLines)
	}
	results, err := sct.ReadResults(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("mixed stream does not parse as results: %v", err)
	}
	if len(results) != 1 || results[0].Err != "" {
		t.Fatalf("campaign results wrong: %+v", results)
	}

	// The announced endpoint serves expvar counters and pprof.
	if !strings.Contains(stderr.String(), "metrics: expvar on http://") {
		t.Errorf("endpoint announcement missing from stderr:\n%s", stderr.String())
	}
	addr, _ := metricsAddr.Load().(string)
	if addr == "" {
		t.Fatal("-metrics :0 did not record a resolved address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, name := range []string{"eval.cells_done", "eval.schedules", "eval.events", "eval.cells_failed"} {
		if _, ok := vars[name]; !ok {
			t.Errorf("/debug/vars missing %s", name)
		}
	}
	var done int64
	if err := json.Unmarshal(vars["eval.cells_done"], &done); err != nil || done < 1 {
		t.Errorf("eval.cells_done = %s, want >= 1 (err %v)", vars["eval.cells_done"], err)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ returned %s", resp.Status)
	}

	// The mixed stream is a valid checkpoint: resuming from it re-runs
	// nothing and still exits clean.
	checkpoint := filepath.Join(t.TempDir(), "cells.jsonl")
	if err := os.WriteFile(checkpoint, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(args("-resume", checkpoint), &stdout, &stderr); code != 0 {
		t.Fatalf("resume from mixed stream exited %d\nstderr: %s", code, stderr.String())
	}
	rest, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("resume from a complete mixed stream re-ran %d cells", len(rest))
	}
}

// TestObsFlagValidation: the observability flags are usage-checked up
// front rather than silently ignored in the wrong mode.
func TestObsFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-fig", "2", "-bench", "counter-racy-2x2", "-progress"},
		{"-fig", "2", "-bench", "counter-racy-2x2", "-heartbeat", "1s"},
		{"-fig", "2", "-bench", "counter-racy-2x2", "-flight", "/tmp"},
		// -heartbeat mixes JSON lines into the stream: requires -json.
		{"-fig", "campaign", "-bench", "counter-racy-2x2", "-heartbeat", "1s"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want usage error 2\nstderr: %s", args, code, stderr.String())
		}
	}
}
