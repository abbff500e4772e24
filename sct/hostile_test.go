package sct_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/progdsl"
	"repro/sct"
)

// panicky: t1 panics iff its read observes t0's store.
func panicky() *progdsl.Program {
	b := progdsl.New("panicky").AutoStart()
	x, y := b.Var("x"), b.Var("y")
	b.Thread().WriteConst(x, 1)
	t1 := b.Thread()
	t1.Read(0, x)
	t1.If(progdsl.Ge(0, 1), func() {
		t1.Panic(42)
	}, func() {
		t1.WriteConst(y, 1)
	})
	return b.Build()
}

// spinner: t1 diverges iff its read observes t0's store.
func spinner() *progdsl.Program {
	b := progdsl.New("spinner").AutoStart()
	x, y := b.Var("x"), b.Var("y")
	b.Thread().WriteConst(x, 1)
	t1 := b.Thread()
	t1.Read(0, x)
	t1.If(progdsl.Ge(0, 1), func() {
		t1.Diverge()
	}, func() {
		t1.WriteConst(y, 1)
	})
	return b.Build()
}

// TestPanicArtifactEndToEnd is the panic-as-violation acceptance
// test: a panicking program yields a violation of kind "panic" that
// survives the whole counterexample workflow — capture, ddmin
// minimization, save, load, replay.
func TestPanicArtifactEndToEnd(t *testing.T) {
	src := panicky()
	rep, err := sct.Run(context.Background(), src, "dfs", sct.StopAtFirstBug())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil || rep.Violation.Kind != "panic" {
		t.Fatalf("Violation = %+v, want kind %q", rep.Violation, "panic")
	}
	if rep.Panics == 0 {
		t.Errorf("Result.Panics = 0, want the panic counted")
	}

	cx, err := rep.Counterexample()
	if err != nil {
		t.Fatal(err)
	}
	if cx.Kind() != "panic" || cx.Program() != "panicky" {
		t.Fatalf("counterexample kind=%q program=%q", cx.Kind(), cx.Program())
	}
	stats, err := cx.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinChoices > stats.OriginalChoices || !cx.Minimized() {
		t.Errorf("minimize did not shrink: %+v", stats)
	}

	path := t.TempDir() + "/panic.json"
	if err := cx.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := sct.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := back.Replay(src)
	if err != nil {
		t.Fatalf("saved panic counterexample does not replay: %v", err)
	}
	if out.ViolationKind() != "panic" {
		t.Fatalf("replayed ViolationKind = %q, want %q (failures %v)",
			out.ViolationKind(), "panic", out.Failures)
	}
}

// TestStallTimeoutOption: WithStallTimeout fences the diverging
// branch as a divergence, the healthy schedules still complete, and
// the accounting identity holds.
func TestStallTimeoutOption(t *testing.T) {
	rep, err := sct.Run(context.Background(), spinner(), "dfs",
		sct.WithStallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Divergences == 0 {
		t.Fatalf("Divergences = 0, want the stuck branch fenced: %+v", rep.Result)
	}
	if rep.Terminals == 0 {
		t.Error("healthy schedules lost next to the diverging one")
	}
	if got := rep.Terminals + rep.Pruned + rep.Truncated + rep.SleepBlocked + rep.Divergences; got != rep.Schedules {
		t.Errorf("accounting %d != schedules %d (%+v)", got, rep.Schedules, rep.Result)
	}
	// The program's read/write race on x is a real, separate finding;
	// the divergence itself must never surface as a violation kind.
	if rep.Violation != nil && rep.Violation.Kind != "data race" {
		t.Errorf("divergence misreported as a violation: %+v", rep.Violation)
	}

	if _, err := sct.Run(context.Background(), spinner(), "dfs",
		sct.WithStallTimeout(-time.Second)); err == nil {
		t.Error("negative stall timeout accepted")
	}
}

// TestContainmentOptionRouting pins which call sites accept the
// containment options: stall timeouts are exploration properties
// (Run and Grid), cell timeouts are runner properties (NewCampaign
// only).
func TestContainmentOptionRouting(t *testing.T) {
	ctx := context.Background()
	src := panicky()

	if _, err := sct.Run(ctx, src, "dfs", sct.WithCellTimeout(time.Second)); err == nil ||
		!strings.Contains(err.Error(), "WithCellTimeout") {
		t.Errorf("Run with WithCellTimeout: %v, want rejection", err)
	}
	if _, err := sct.Grid([]string{"counter-racy-2x2"}, []string{"dfs"},
		sct.WithCellTimeout(time.Second)); err == nil ||
		!strings.Contains(err.Error(), "WithCellTimeout") {
		t.Errorf("Grid with WithCellTimeout: %v, want rejection", err)
	}

	cells, err := sct.Grid([]string{"counter-racy-2x2"}, []string{"dfs"},
		sct.WithStallTimeout(time.Millisecond/2))
	if err != nil {
		t.Fatalf("Grid with WithStallTimeout: %v", err)
	}
	// Sub-millisecond timeouts round up: armed never becomes disarmed.
	if cells[0].StallTimeoutMS != 1 {
		t.Errorf("StallTimeoutMS = %d, want 1 (rounded up from 500µs)", cells[0].StallTimeoutMS)
	}
	if _, err := sct.NewCampaign(cells, sct.WithStallTimeout(time.Second)); err == nil ||
		!strings.Contains(err.Error(), "WithStallTimeout") {
		t.Errorf("NewCampaign with WithStallTimeout: %v, want rejection", err)
	}
	if _, err := sct.NewCampaign(cells,
		sct.WithCellTimeout(time.Second)); err != nil {
		t.Errorf("NewCampaign with containment options: %v, want accepted", err)
	}
}
