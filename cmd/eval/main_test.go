package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/figures"
	"repro/sct"
)

// TestCampaignSmoke runs a tiny campaign end-to-end through the real
// CLI entry point and validates the streamed JSON output shape.
func TestCampaignSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "campaign",
		"-bench", "counter-racy-2x2",
		"-engines", "dfs,dpor,random:7",
		"-limit", "300",
		"-maxsteps", "2000",
		"-json", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}

	results, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatalf("campaign output is not valid JSONL: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d cells, want 3 (one per engine)", len(results))
	}
	seen := map[sct.EngineSpec]bool{}
	for _, r := range results {
		if r.Cell.Bench != "counter-racy-2x2" {
			t.Errorf("unexpected bench %q", r.Cell.Bench)
		}
		if r.Err != "" {
			t.Errorf("cell %s failed: %s", r.Cell.Engine, r.Err)
		}
		if r.Result.Schedules <= 0 || r.Result.DistinctStates <= 0 {
			t.Errorf("cell %s has empty result: %+v", r.Cell.Engine, r.Result)
		}
		if err := r.Result.CheckInvariant(); err != nil {
			t.Errorf("cell %s: %v", r.Cell.Engine, err)
		}
		seen[r.Cell.Engine] = true
	}
	for _, want := range []sct.EngineSpec{"dfs", "dpor", "random:7"} {
		if !seen[want] {
			t.Errorf("missing cell for engine %s", want)
		}
	}
}

// TestCampaignResume: a partial JSONL stream checkpoint-resumes a
// campaign — resumed cells are skipped, the rest stream out, and the
// concatenation of both parts is the full grid.
func TestCampaignResume(t *testing.T) {
	runJSON := func(extra ...string) []sct.CellResult {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{
			"-fig", "campaign",
			"-bench", "counter-racy-2x2",
			"-engines", "dfs,dpor,random:7",
			"-limit", "300",
			"-json", "-quiet",
		}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
		}
		results, err := sct.ReadResults(&stdout)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	full := runJSON()
	// Checkpoint only the dfs and random cells; dpor must re-run.
	partial := filepath.Join(t.TempDir(), "cells.jsonl")
	f, err := os.Create(partial)
	if err != nil {
		t.Fatal(err)
	}
	w := sct.JSONLWriter(f)
	for _, r := range full {
		if r.Cell.Engine != "dpor" {
			w(r)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rest := runJSON("-resume", partial)
	if len(rest) != 1 || rest[0].Cell.Engine != "dpor" {
		t.Fatalf("resume re-ran %d cells %v, want just dpor", len(rest), rest)
	}
	for _, orig := range full {
		if orig.Cell.Engine == "dpor" && orig.Result.Schedules != rest[0].Result.Schedules {
			t.Errorf("resumed dpor cell diverged: %d schedules, want %d",
				rest[0].Result.Schedules, orig.Result.Schedules)
		}
	}
}

// TestFig2Smoke runs the Figure 2 pipeline over a two-benchmark slice
// and checks the TSV and summary render.
func TestFig2Smoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "2",
		"-bench", "counter-racy",
		"-limit", "500",
		"-scatter=false", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "id\tname\tschedules") {
		t.Errorf("missing TSV header in output:\n%s", out)
	}
	if !strings.Contains(out, "counter-racy-2x2") || !strings.Contains(out, "summary:") {
		t.Errorf("missing rows or summary in output:\n%s", out)
	}
}

// TestFigureLimitZeroIsUnlimited: -limit 0 means unlimited in the
// figure modes as in campaign mode, so DPOR exhausts coarse-tail-3x3
// instead of stopping at a substituted limit.
func TestFigureLimitZeroIsUnlimited(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 224,274 schedules; slow under -race")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "2",
		"-bench", "coarse-tail-3x3",
		"-limit", "0",
		"-scatter=false", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	// id, name, schedules, hbrs, lazy_hbrs, states, hit_limit.
	if want := "20\tcoarse-tail-3x3\t224274\t10080\t1680\t3\tfalse\n"; !strings.Contains(stdout.String(), want) {
		t.Errorf("want row %q in output:\n%s", want, stdout.String())
	}
}

// TestFigureTimeoutPrintsNothing: a -timeout that ends a figure
// campaign early exits 1 and prints no figure built from partial
// cells.
func TestFigureTimeoutPrintsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "all", "-bench", "coarse-tail-3x3", "-limit", "0", "-timeout", "20ms", "-quiet"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 {
		t.Errorf("exit %d with stdout %q, want exit 1 and no output\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestFigureJSONStreamsCells: -json means the same in the figure modes
// as in campaign and firstbug mode: the cells stream out instead of
// being rendered, and the figures rebuild from the stream.
func TestFigureJSONStreamsCells(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "3", "-bench", "peterson-2", "-limit", "300", "-json", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	results, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := figures.Fig3FromCells(results)
	if err != nil || len(rows) != 1 || rows[0].Name != "peterson-2" {
		t.Errorf("Figure 3 from the -json stream: rows %+v, err %v", rows, err)
	}
}

// TestParallelSweepMatchesSequential: both figures from one campaign
// print byte-identical output on one worker and on every core
// (-parallel 0).
func TestParallelSweepMatchesSequential(t *testing.T) {
	figs := func(par string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", "all", "-limit", "300", "-parallel", par, "-quiet"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: eval exited %d\nstderr: %s", par, code, stderr.String())
		}
		return stdout.String()
	}
	seq, par := figs("1"), figs("0")
	if !strings.Contains(seq, "== Figure 2") || !strings.Contains(seq, "== Figure 3") {
		t.Fatalf("-fig all output lacks a figure:\n%s", seq)
	}
	if seq != par {
		t.Errorf("-parallel 1 and -parallel 0 differ:\n--- 1 ---\n%s\n--- 0 ---\n%s", seq, par)
	}
}

// TestCampaignJSONFeedsFigures: the streamed campaign JSON rebuilds
// Figure 2 rows identical to the direct pipeline — the paper's
// evaluation can be split into a cluster-style produce/consume pair.
func TestCampaignJSONFeedsFigures(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "campaign",
		"-bench", "prodcons",
		"-engines", "dpor",
		"-limit", "400",
		"-json", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	results, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := figures.Fig2FromCells(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Figure 2 rows from campaign stream")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].ID >= rows[i].ID {
			t.Errorf("rows not sorted by benchmark ID: %d then %d", rows[i-1].ID, rows[i].ID)
		}
	}
}

// TestCampaignStealStats: the work-stealing pdpor engine is selectable
// from the CLI, its steal statistics survive the JSON stream, and the
// human-readable table renders them.
func TestCampaignStealStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "campaign",
		"-bench", "counter-racy-2x2",
		"-engines", "pdpor:4",
		"-maxsteps", "2000",
		"-json", "-quiet",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	results, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	byEngine := map[sct.EngineSpec]sct.CellResult{}
	for _, r := range results {
		byEngine[r.Cell.Engine] = r
	}
	ws := byEngine["pdpor:4"]
	if ws.Result.Steal == nil || ws.Result.Steal.Workers != 4 || ws.Result.Steal.Units < 1 {
		t.Errorf("work-stealing cell lost its steal stats: %+v", ws.Result.Steal)
	}

	var table bytes.Buffer
	code = run([]string{
		"-fig", "campaign",
		"-bench", "counter-racy-2x2",
		"-engines", "pdpor:2",
		"-maxsteps", "2000",
		"-quiet",
	}, &table, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(table.String(), "steal[w=2") {
		t.Errorf("table output missing steal stats:\n%s", table.String())
	}
}

// TestFirstBugMode drives the bug-finding pipeline end-to-end through
// the CLI: the registry-derived default engine grid (including pdpor
// at 1/2/4 workers) sweeps a deadlocking benchmark, the table reports
// schedules-to-first-bug per engine, and -repro/-minimize/-verify
// write replay-verified counterexample artifacts.
func TestFirstBugMode(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "firstbug",
		"-bench", "philosophers-",
		"-limit", "5000",
		"-maxsteps", "500",
		"-quiet",
		"-repro", dir,
		"-minimize", "-verify",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"schedules to first bug",
		"philosophers-2", "philosophers-3",
		"pct:3", "pos",
		"pdpor:1", "pdpor:2", "pdpor:4",
		"deadlock",
		"all replay-verified",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("firstbug output missing %q:\n%s", want, out)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Two deadlocking benchmarks × the 14 default-grid engines.
	if want := 2 * len(sct.DefaultGrid()); len(files) != want {
		t.Errorf("wrote %d artifacts, want %d: %v", len(files), want, files)
	}
	cx, err := sct.Load(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !cx.Minimized() || cx.Kind() != "deadlock" || cx.SchedulesToBug() < 1 {
		t.Errorf("artifact not minimized deadlock with bug index: %v", cx)
	}
	bm, ok := bench.ByName(cx.Program())
	if !ok {
		t.Fatalf("artifact names unknown program %q", cx.Program())
	}
	if _, err := cx.Replay(bm.Program); err != nil {
		t.Errorf("artifact does not replay: %v", err)
	}
}

// TestFirstBugResume: a partial firstbug JSONL checkpoint resumes —
// only the missing cell re-runs, yet the table and the artifact pass
// still cover the full grid from the adopted results.
func TestFirstBugResume(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{
			"-fig", "firstbug",
			"-bench", "philosophers-3",
			"-engines", "dpor,random:3",
			"-limit", "5000",
			"-maxsteps", "500",
			"-json", "-quiet",
		}, extra...)
	}
	var stdout, stderr bytes.Buffer
	if code := run(args(), &stdout, &stderr); code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	full, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 {
		t.Fatalf("got %d cells", len(full))
	}

	checkpoint := filepath.Join(t.TempDir(), "cells.jsonl")
	f, err := os.Create(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	w := sct.JSONLWriter(f)
	for _, r := range full {
		if r.Cell.Engine == "dpor" {
			w(r)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stdout.Reset()
	stderr.Reset()
	if code := run(args("-resume", checkpoint, "-repro", dir), &stdout, &stderr); code != 0 {
		t.Fatalf("resumed eval exited %d\nstderr: %s", code, stderr.String())
	}
	rest, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0].Cell.Engine != "random:3" {
		t.Fatalf("resume re-ran %v, want just random:3", rest)
	}
	// Artifacts must cover the resumed dpor cell too.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("artifact pass wrote %d files, want 2 (incl. resumed cell): %v", len(files), files)
	}
}

// TestFirstBugJSONStream: -json streams one parseable cell per line
// with the first-bug fields populated — and stays parseable when
// artifact writing is enabled alongside (its summary goes to stderr).
func TestFirstBugJSONStream(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-fig", "firstbug",
		"-bench", "philosophers-3",
		"-engines", "dpor,pdpor:2",
		"-limit", "5000",
		"-maxsteps", "500",
		"-json", "-quiet",
		"-repro", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("eval exited %d\nstderr: %s", code, stderr.String())
	}
	results, err := sct.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d cells, want 2", len(results))
	}
	for _, r := range results {
		if !r.Cell.StopAtFirstBug {
			t.Errorf("cell %s lost StopAtFirstBug", r.Cell.Engine)
		}
		if r.Result.FirstBugSchedule < 1 || r.Result.ViolationKind != "deadlock" {
			t.Errorf("cell %s: first-bug fields missing: idx=%d kind=%q",
				r.Cell.Engine, r.Result.FirstBugSchedule, r.Result.ViolationKind)
		}
	}
}

// TestBadFlags: unknown engines and empty selections exit non-zero.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "campaign", "-engines", "bogus"}, &stdout, &stderr); code == 0 {
		t.Error("bogus engine spec exited 0")
	}
	if code := run([]string{"-bench", "no-such-benchmark-xyz"}, &stdout, &stderr); code == 0 {
		t.Error("empty benchmark selection exited 0")
	}
	if code := run([]string{"-fig", "campaign", "-bench", "counter-racy-2x2", "-resume", "/no/such/file.jsonl"}, &stdout, &stderr); code == 0 {
		t.Error("missing resume file exited 0")
	}
	if code := run([]string{"-fig", "2", "-bench", "counter-racy-2x2", "-resume", "x.jsonl"}, &stdout, &stderr); code != 2 {
		t.Error("-resume outside campaign/firstbug mode must be a usage error")
	}
	if code := run([]string{"-fig", "campaign", "-bench", "counter-racy-2x2", "-repro", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Error("-repro outside firstbug mode must be a usage error, not a silent no-op")
	}
	if code := run([]string{"-fig", "4", "-bench", "counter-racy-2x2"}, &stdout, &stderr); code != 2 {
		t.Error("an unknown -fig mode must be a usage error, not a silent exit 0")
	}
	// Flags a mode does not read are usage errors, not silent no-ops.
	for _, args := range [][]string{
		{"-fig", "2", "-engines", "dfs"},
		{"-fig", "all", "-engines", "dpor"},
		{"-fig", "campaign", "-md"},
		{"-fig", "campaign", "-scatter"},
		{"-fig", "firstbug", "-scatter=false"},
	} {
		args = append(args, "-bench", "counter-racy-2x2", "-quiet")
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want the usage error 2", args, code)
		}
	}
}
