package sct_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
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

// builtinEngines is the canonical built-in engine catalogue, in
// registration order. Tests iterate it rather than sct.Engines():
// other tests register custom engines into the process-global
// registry, and test order must not matter.
var builtinEngines = []string{
	"dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching",
	"lazy-hbr-caching", "pb", "db", "random", "pct", "pos", "pdpor",
}

// TestRegistryComplete pins the canonical engine catalogue: every
// built-in engine is registered under its canonical name, the default
// grid is derived from the same table, and every registered engine is
// buildable and Run-able with default arguments.
func TestRegistryComplete(t *testing.T) {
	wantNames := builtinEngines
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

// brokenInvariantEngine reports more distinct states than lazy HBR
// classes, which no sound exploration can produce.
type brokenInvariantEngine struct{}

func (brokenInvariantEngine) Name() string { return "custom-broken-invariant" }
func (brokenInvariantEngine) Explore(src sct.Source, opt sct.Options) sct.Result {
	return sct.Result{Program: src.Name(), Engine: "custom-broken-invariant",
		Schedules: 2, DistinctHBRs: 2, DistinctLazyHBRs: 1, DistinctStates: 2}
}

// TestRunReportsBrokenInvariant: a Result breaking the inequality
// chain states ≤ lazy HBRs ≤ HBRs ≤ schedules is a framework bug; Run
// still returns the report, with an error naming engine and program.
func TestRunReportsBrokenInvariant(t *testing.T) {
	registerOnce(sct.EngineInfo{
		Name:    "custom-broken-invariant",
		Summary: "breaks the Section 3 inequality chain (invariant test)",
		Build: func(args []string) (sct.Engine, error) {
			return brokenInvariantEngine{}, nil
		},
	})
	rep, err := sct.Run(context.Background(), racyCounter(), "custom-broken-invariant")
	if err == nil {
		t.Fatal("broken inequality chain not reported")
	}
	if rep == nil || rep.DistinctStates != 2 {
		t.Fatalf("report withheld on invariant failure: %+v", rep)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "sct:") || !strings.Contains(msg, "custom-broken-invariant") ||
		!strings.Contains(msg, "racy-counter") {
		t.Errorf("error %q should start with sct: and name the engine and program", msg)
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

// TestNewEngineRejectsBadSpecs: a spec whose arguments the engine
// cannot honour fails at build time with an error naming the spec and
// the argument, instead of building an engine that crashes or
// silently explores something else.
func TestNewEngineRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"pct:0", "bug depth 0 (want >= 1)"},
		{"pb:-1", "bound -1 (want >= 0)"},
		{"db:-1", "bound -1 (want >= 0)"},
		{"pb:x", "argument 1"},
		{"random:7:junk", `more than 1 argument(s) for "random[:seed]"`},
		{"pct:3:1:zzz", `more than 2 argument(s) for "pct:d[:seed]"`},
		{"pos:1:2", `more than 1 argument(s) for "pos[:seed]"`},
		{"pb:2:lazy", `more than 1 argument(s) for "pb:N"`},
		{"pb:1:hbr", `more than 1 argument(s) for "pb:N"`},
		{"db:2:1", `more than 1 argument(s) for "db:N"`},
		{"pdpor:2:1", "more than 1 argument(s)"},
		{"dpor:extra", `more than 0 argument(s) for "dpor"`},
		{"nope", "unknown engine spec"},
		{"chess-pb:3", "unknown engine spec"},
		{"chess-db:3", "unknown engine spec"},
		{"chaos", "unknown engine spec"},
	} {
		_, err := sct.NewEngine(tc.spec)
		if err == nil {
			t.Errorf("NewEngine(%q) accepted a bad spec", tc.spec)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.spec) || !strings.Contains(msg, tc.want) {
			t.Errorf("NewEngine(%q) error %q, want it to name the spec and %q", tc.spec, msg, tc.want)
		}
	}
	for _, spec := range []string{"pb:0", "db:0", "random:7", "pct:3:1", "pos:1", "pdpor:2"} {
		if _, err := sct.NewEngine(spec); err != nil {
			t.Errorf("NewEngine(%q): %v (a zero bound is a valid search, and every argument is within the grammar)", spec, err)
		}
	}
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
	if want := fmt.Sprintf("deadlock after %d steps", len(rep.Violation.Schedule)); rep.Violation.String() != want {
		t.Errorf("Violation.String() = %q, want %q", rep.Violation.String(), want)
	}
	// The witness replay records clocks: one per traced event.
	if len(rep.Violation.Outcome.HBClocks) != len(rep.Violation.Outcome.Trace) {
		t.Errorf("replay recorded %d clocks for %d events",
			len(rep.Violation.Outcome.HBClocks), len(rep.Violation.Outcome.Trace))
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

// TestRunFindsAndReplaysViolation: Run replays the first violation
// into Report.Violation, and its schedule reproduces the failure on
// an independent replay.
func TestRunFindsAndReplaysViolation(t *testing.T) {
	rep, err := sct.Run(context.Background(), racyCounter(), "dpor")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("racy counter must yield a violation")
	}
	if rep.Violation.Kind == "" || len(rep.Violation.Schedule) == 0 {
		t.Fatalf("violation incomplete: %+v", rep.Violation)
	}
	if len(rep.Violation.Outcome.Trace) != len(rep.Violation.Schedule) {
		t.Error("replayed trace must match the schedule length")
	}
	if !rep.Violation.Outcome.Failed() {
		t.Error("replaying the violation schedule must reproduce the failure")
	}
	if !strings.Contains(rep.Violation.String(), "after") {
		t.Errorf("violation String = %q", rep.Violation.String())
	}
	again := exec.Replay(racyCounter(), rep.Violation.Schedule, exec.Options{})
	if !again.Failed() {
		t.Error("independent replay must also fail")
	}
}

// TestZeroStepDeadlockKeepsWitness: a program deadlocked in its
// initial state has the empty schedule as its witness. Every engine,
// the pdpor merge included, must report the violation, replay it into
// Report.Violation and capture it as a counterexample.
func TestZeroStepDeadlockKeepsWitness(t *testing.T) {
	p := sct.NewProgram("zero-step-deadlock")
	c := p.Chan("c", 0)
	p.Thread(func(g *sct.G) { g.Recv(c) })
	for _, engine := range []string{"dfs", "dpor", "random", "pdpor:2"} {
		rep, err := sct.Run(context.Background(), p, engine, sct.WithBounds(10, 100))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if rep.Deadlocks < 1 || rep.ViolationKind != "deadlock" || rep.FirstBugSchedule != 1 {
			t.Errorf("%s: deadlocks=%d kind=%q first bug at %d, want ≥1, deadlock, 1",
				engine, rep.Deadlocks, rep.ViolationKind, rep.FirstBugSchedule)
		}
		if rep.Violation == nil {
			t.Errorf("%s: the zero-step deadlock lost its witness", engine)
		} else if len(rep.Violation.Schedule) != 0 || !rep.Violation.Outcome.Deadlock {
			t.Errorf("%s: violation %+v, want the empty schedule replaying to a deadlock", engine, rep.Violation)
		}
		cx, err := rep.Counterexample()
		if err != nil {
			t.Errorf("%s: %v", engine, err)
		} else if cx.Kind() != "deadlock" || len(cx.Choices()) != 0 {
			t.Errorf("%s: counterexample %v, want an empty deadlock witness", engine, cx)
		}
	}
}

// TestRunCleanProgram: two writes to distinct variables commute, so
// DFS sees one terminal state and no violation.
func TestRunCleanProgram(t *testing.T) {
	b := progdsl.New("clean").AutoStart()
	x, y := b.Var("x"), b.Var("y")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(y, 1)
	rep, err := sct.Run(context.Background(), b.Build(), "dfs")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("clean program produced a violation: %v", rep.Violation)
	}
	if rep.DistinctStates != 1 || rep.HitLimit {
		t.Errorf("unexpected result: %v", rep.Result.String())
	}
}

// TestRunUnknownEngine: an unregistered spec errors before any
// exploration and yields no report.
func TestRunUnknownEngine(t *testing.T) {
	rep, err := sct.Run(context.Background(), racyCounter(), "nope")
	if err == nil {
		t.Fatal("Run with unknown engine must error")
	}
	if rep != nil {
		t.Errorf("unknown engine returned a report: %+v", rep)
	}
}

// TestRunAllEnginesOnOneProgram runs every built-in engine, with
// default arguments and step bound, on the racy counter.
func TestRunAllEnginesOnOneProgram(t *testing.T) {
	for _, name := range builtinEngines {
		rep, err := sct.Run(context.Background(), racyCounter(), name, sct.WithScheduleLimit(2000))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if rep.Schedules == 0 {
			t.Errorf("%s made no progress", name)
		}
	}
}
