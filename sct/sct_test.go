package sct_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/progdsl"
	"repro/sct"
)

// racyCounter is the canonical two-thread lost-update program: two
// unsynchronised read-modify-write increments.
func racyCounter() *progdsl.Program {
	b := progdsl.New("racy-counter").AutoStart()
	x := b.Var("x")
	for i := 0; i < 2; i++ {
		th := b.Thread()
		th.Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	}
	return b.Build()
}

// deadlocker is the two-mutex circular-wait program.
func deadlocker() *progdsl.Program {
	b := progdsl.New("deadlocker").AutoStart()
	m0, m1 := b.Mutex("m0"), b.Mutex("m1")
	b.Thread().Lock(m0).Lock(m1).Unlock(m1).Unlock(m0)
	b.Thread().Lock(m1).Lock(m0).Unlock(m0).Unlock(m1)
	return b.Build()
}

// TestRegistryComplete pins the canonical engine catalogue: every
// built-in engine is registered under its canonical name, the default
// grid is derived from the same table, and every registered engine is
// buildable and Run-able with default arguments.
func TestRegistryComplete(t *testing.T) {
	wantNames := []string{
		"dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching",
		"lazy-hbr-caching", "pb", "db", "chess-pb", "chess-db", "random",
		"pct", "pos", "chaos", "pdpor",
	}
	if got := sct.EngineNames(); !reflect.DeepEqual(got[:len(wantNames)], wantNames) {
		t.Fatalf("canonical engine names = %v, want prefix %v", got, wantNames)
	}
	wantGrid := []string{
		"dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching",
		"lazy-hbr-caching", "pb:2", "db:2", "random", "pct:3", "pos",
		"pdpor:1", "pdpor:2", "pdpor:4",
	}
	if got := sct.DefaultGrid(); !reflect.DeepEqual(got, wantGrid) {
		t.Fatalf("DefaultGrid() = %v, want %v", got, wantGrid)
	}

	// Iterate the pinned built-in names, not sct.Engines(): other
	// tests may have registered custom engines into the process-global
	// registry, and test order must not matter.
	src := racyCounter()
	for _, name := range wantNames {
		eng, err := sct.NewEngine(name)
		if err != nil {
			t.Errorf("NewEngine(%q): %v", name, err)
			continue
		}
		if eng.Name() == "" {
			t.Errorf("engine %q reports an empty name", name)
		}
		rep, err := sct.Run(context.Background(), src, name, sct.WithBounds(200, 500))
		if err != nil {
			t.Errorf("Run with %q: %v", name, err)
			continue
		}
		if rep.Schedules == 0 {
			t.Errorf("Run with %q executed no schedules", name)
		}
		if err := rep.CheckInvariant(); err != nil {
			t.Errorf("Run with %q: %v", name, err)
		}
	}
}

// customEngine is a third-party engine implemented purely against the
// facade's exported types.
type customEngine struct{}

func (customEngine) Name() string { return "custom-null" }
func (customEngine) Explore(src sct.Source, opt sct.Options) sct.Result {
	return sct.Result{Program: src.Name(), Engine: "custom-null"}
}

// registerOnce registers a test engine exactly once per process: the
// registry is process-global and Register panics on duplicates, so
// repeated test runs (-count=2) and any test order must both work.
func registerOnce(info sct.EngineInfo) {
	for _, have := range sct.Engines() {
		if have.Name == info.Name {
			return
		}
	}
	sct.Register(info)
}

// TestRegisterCustomEngine: an embedder-registered engine is Run-able
// by name and usable as a campaign cell spec — the registry is one
// namespace end to end.
func TestRegisterCustomEngine(t *testing.T) {
	registerOnce(sct.EngineInfo{
		Name:    "custom-null",
		Summary: "does nothing (registration test)",
		Build: func(args []string) (sct.Engine, error) {
			return customEngine{}, nil
		},
	})
	rep, err := sct.Run(context.Background(), racyCounter(), "custom-null")
	if err != nil {
		t.Fatalf("Run with custom engine: %v", err)
	}
	if rep.Engine != "custom-null" {
		t.Fatalf("custom engine result: %+v", rep.Result)
	}
	if _, err := sct.Grid([]string{"counter-racy-2x2"}, []string{"custom-null"}); err != nil {
		t.Fatalf("custom engine rejected as a grid spec: %v", err)
	}
}

// TestRegisterRejectsBadInfo: registration programmer errors panic.
func TestRegisterRejectsBadInfo(t *testing.T) {
	mustPanic := func(name string, info sct.EngineInfo) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		sct.Register(info)
	}
	build := func(args []string) (sct.Engine, error) { return customEngine{}, nil }
	mustPanic("empty name", sct.EngineInfo{Build: build})
	mustPanic("spec separator", sct.EngineInfo{Name: "a:b", Build: build})
	mustPanic("nil builder", sct.EngineInfo{Name: "no-builder"})
	mustPanic("duplicate", sct.EngineInfo{Name: "dpor", Build: build})
}

// TestRunErrors covers the facade's error paths: unknown engines, nil
// programs, and every option validation failure.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	src := racyCounter()

	if _, err := sct.Run(ctx, nil, "dpor"); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := sct.Run(ctx, src, "no-such-engine"); err == nil || !strings.Contains(err.Error(), "no-such-engine") {
		t.Errorf("unknown engine error should name the spec: %v", err)
	}
	if _, err := sct.Run(ctx, src, "dpor:extra"); err == nil {
		t.Error("arguments to a no-argument engine accepted")
	}
	if _, err := sct.Run(ctx, src, "pb:x"); err == nil {
		t.Error("non-numeric bound accepted")
	}

	bad := []struct {
		name string
		opt  sct.Option
		want string
	}{
		{"negative schedule limit", sct.WithScheduleLimit(-1), "schedule limit"},
		{"negative bounds limit", sct.WithBounds(-5, 0), "schedule limit"},
		{"negative step bound", sct.WithBounds(0, -5), "step bound"},
		{"nil violation callback", sct.OnViolation(nil), "OnViolation"},
	}
	for _, tc := range bad {
		if _, err := sct.Run(ctx, src, "dpor", tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Options a call site cannot honour are rejected, not silently
	// dropped.
	if _, err := sct.Run(ctx, src, "dpor", sct.WithWorkers(4)); err == nil ||
		!strings.Contains(err.Error(), "WithWorkers") {
		t.Errorf("Run with WithWorkers: %v, want rejection", err)
	}
	if _, err := sct.Grid([]string{"a"}, []string{"dfs"}, sct.OnViolation(func(sct.Witness) {})); err == nil {
		t.Error("Grid with OnViolation accepted (cells cannot carry the callback)")
	}
	cells := []sct.Cell{{Bench: "counter-racy-2x2", Engine: "dfs"}}
	if _, err := sct.NewCampaign(cells, sct.StopAtFirstBug()); err == nil ||
		!strings.Contains(err.Error(), "StopAtFirstBug") {
		t.Errorf("NewCampaign with per-cell option: %v, want rejection", err)
	}

	// Valid options still compose.
	rep, err := sct.Run(ctx, src, "dpor",
		sct.WithScheduleLimit(100), sct.WithRecordStates())
	if err != nil {
		t.Fatalf("valid option combination rejected: %v", err)
	}
	if len(rep.States) == 0 {
		t.Error("WithRecordStates did not retain state keys")
	}
}

// TestRunFindsViolationAndCounterexample drives the full embedding
// workflow: explore, get the violation report, capture the
// counterexample, minimize, save, load, replay.
func TestRunFindsViolationAndCounterexample(t *testing.T) {
	src := deadlocker()
	var witnessed int
	rep, err := sct.Run(context.Background(), src, "dpor+sleep",
		sct.StopAtFirstBug(),
		sct.OnViolation(func(w sct.Witness) { witnessed++ }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil || rep.Violation.Kind != "deadlock" {
		t.Fatalf("deadlocker must deadlock: %+v", rep.Result)
	}
	if rep.FirstBugSchedule < 1 {
		t.Errorf("StopAtFirstBug lost the schedules-to-first-bug index: %d", rep.FirstBugSchedule)
	}
	if witnessed == 0 {
		t.Error("OnViolation callback never fired")
	}
	if len(rep.Violation.Outcome.Trace) == 0 {
		t.Error("violation outcome has no trace")
	}

	cx, err := rep.Counterexample()
	if err != nil {
		t.Fatal(err)
	}
	if cx.Kind() != "deadlock" || cx.Program() != "deadlocker" || cx.SchedulesToBug() != rep.FirstBugSchedule {
		t.Errorf("counterexample metadata wrong: %v", cx)
	}
	stats, err := cx.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinChoices > stats.OriginalChoices || !cx.Minimized() {
		t.Errorf("minimize grew the schedule: %+v", stats)
	}

	path := t.TempDir() + "/deadlock.json"
	if err := cx.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := sct.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Minimize(); err == nil {
		t.Error("Minimize on an unbound counterexample must error")
	}
	out, err := back.Replay(src)
	if err != nil {
		t.Fatalf("saved counterexample does not replay: %v", err)
	}
	if !out.Deadlock {
		t.Error("replay did not reproduce the deadlock")
	}
	if _, err := back.Minimize(); err != nil {
		t.Errorf("Replay should bind the program for Minimize: %v", err)
	}

	// Replaying against the wrong program must fail loudly.
	if _, err := back.Replay(racyCounter()); err == nil {
		t.Error("cross-program replay succeeded")
	}
}

// TestCounterexampleNeedsViolation: a clean run has nothing to
// capture.
func TestCounterexampleNeedsViolation(t *testing.T) {
	b := progdsl.New("clean").AutoStart()
	x, y := b.Var("x"), b.Var("y")
	b.Thread().Write(x, 1)
	b.Thread().Write(y, 1)
	rep, err := sct.Run(context.Background(), b.Build(), "dfs")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("clean program reported a violation: %+v", rep.Violation)
	}
	if _, err := rep.Counterexample(); err == nil {
		t.Error("Counterexample on a clean run must error")
	}
}
