package exec

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/event"
	"repro/internal/progdsl"
)

// twoWriters builds two auto-started threads writing to disjoint
// variables — a clean, race-free program with exactly two schedules.
func twoWriters() *progdsl.Program {
	b := progdsl.New("two-writers").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(y, 2)
	return b.Build()
}

// conflictWriters builds two threads writing the same variable — the
// minimal genuinely racy program.
func conflictWriters() *progdsl.Program {
	b := progdsl.New("conflict-writers").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(x, 2)
	return b.Build()
}

func TestRunFirstEnabled(t *testing.T) {
	out := Run(twoWriters(), FirstEnabled{}, Options{})
	if len(out.Trace) != 2 {
		t.Fatalf("trace = %v", out.Trace)
	}
	if out.Trace[0].Thread != 0 || out.Trace[1].Thread != 1 {
		t.Errorf("first-enabled order wrong: %v", out.Trace)
	}
	if out.Deadlock || out.Truncated || out.Failed() {
		t.Errorf("clean run misreported: %+v", out)
	}
	if out.StateKey == "" {
		t.Error("state key must be populated")
	}
}

func TestPrefixChooserReproduces(t *testing.T) {
	prog := twoWriters()
	forced := Run(prog, &Prefix{Choices: []event.ThreadID{1, 0}}, Options{})
	if forced.Trace[0].Thread != 1 {
		t.Fatalf("prefix not honoured: %v", forced.Trace)
	}
	replay := Replay(prog, forced.Choices, Options{})
	if replay.StateKey != forced.StateKey || replay.HBFP != forced.HBFP || replay.LazyFP != forced.LazyFP {
		t.Error("replay of recorded choices must reproduce the outcome")
	}
}

func TestPrefixFallsBackWhenChoiceDisabled(t *testing.T) {
	b := progdsl.New("block").AutoStart()
	m := b.Mutex("m")
	b.Thread().Lock(m).Unlock(m)
	b.Thread().Lock(m).Unlock(m)
	// Ask for thread 1 twice in a row: after its lock, the second
	// request is fine, but asking for thread 1 a third time (when it
	// is done) must fall back to thread 0.
	out := Run(b.Build(), &Prefix{Choices: []event.ThreadID{1, 1, 1, 1}}, Options{})
	if out.Deadlock || out.Truncated {
		t.Fatalf("fallback failed: %+v", out)
	}
	if len(out.Trace) != 4 {
		t.Fatalf("trace = %v", out.Trace)
	}
}

func TestRandomChooserSeeded(t *testing.T) {
	prog := twoWriters()
	a := Run(prog, NewRandom(5), Options{})
	b := Run(prog, NewRandom(5), Options{})
	if a.StateKey != b.StateKey || len(a.Trace) != len(b.Trace) {
		t.Error("same seed must give the same schedule")
	}
	for i := range a.Choices {
		if a.Choices[i] != b.Choices[i] {
			t.Fatal("same seed must give the same choices")
		}
	}
}

func TestTruncation(t *testing.T) {
	// A two-thread lock ping-pong long enough to exceed MaxSteps.
	b := progdsl.New("long").AutoStart()
	x := b.Var("x")
	th := b.Thread()
	th.Const(0, 100)
	th.While(progdsl.Ge(0, 1), func() {
		th.Read(1, x)
		th.AddConst(1, 1, 1)
		th.Write(x, 1)
		th.AddConst(0, 0, -1)
	})
	out := Run(b.Build(), FirstEnabled{}, Options{MaxSteps: 10})
	if !out.Truncated {
		t.Fatal("run must be truncated at MaxSteps")
	}
	if len(out.Trace) != 10 {
		t.Fatalf("trace length %d, want 10", len(out.Trace))
	}
}

func TestRecordClocks(t *testing.T) {
	out := Run(conflictWriters(), FirstEnabled{}, Options{RecordClocks: true})
	if len(out.HBClocks) != 2 || len(out.LazyClocks) != 2 {
		t.Fatalf("clocks not recorded: %d %d", len(out.HBClocks), len(out.LazyClocks))
	}
	// Conflicting writes: the second is ordered after the first in
	// the regular HBR (write-write edge on x).
	if out.HBClocks[1].Get(0) != 1 {
		t.Errorf("second write's HB clock %v must include the first", out.HBClocks[1])
	}
	off := Run(conflictWriters(), FirstEnabled{}, Options{})
	if off.HBClocks != nil {
		t.Error("clocks must not be recorded unless requested")
	}
}

func TestDeadlockOutcome(t *testing.T) {
	b := progdsl.New("dl").AutoStart()
	m0 := b.Mutex("m0")
	m1 := b.Mutex("m1")
	b.Thread().Lock(m0).Lock(m1).Unlock(m1).Unlock(m0)
	b.Thread().Lock(m1).Lock(m0).Unlock(m0).Unlock(m1)
	// Alternate the first two steps to reach the circular wait.
	out := Run(b.Build(), &Prefix{Choices: []event.ThreadID{0, 1}}, Options{})
	if !out.Deadlock {
		t.Fatalf("expected deadlock: %+v", out)
	}
	if !out.Failed() {
		t.Error("deadlock must count as failure")
	}
	if len(out.Trace) != 2 {
		t.Errorf("trace = %v", out.Trace)
	}
}

func TestRacesSurfaceInOutcome(t *testing.T) {
	b := progdsl.New("race").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(x, 2)
	out := Run(b.Build(), FirstEnabled{}, Options{})
	if len(out.Races) != 1 {
		t.Fatalf("races = %v, want one", out.Races)
	}
	if !out.Failed() {
		t.Error("a race must count as failure")
	}
}

func TestFingerprintsMatchScheduleEquivalence(t *testing.T) {
	// Independent writers: both schedule orders give identical
	// regular AND lazy fingerprints.
	b := progdsl.New("indep").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(y, 1)
	prog := b.Build()
	o1 := Run(prog, &Prefix{Choices: []event.ThreadID{0, 1}}, Options{})
	o2 := Run(prog, &Prefix{Choices: []event.ThreadID{1, 0}}, Options{})
	if o1.HBFP != o2.HBFP {
		t.Error("independent writes: HBR fingerprints must be equal")
	}
	if o1.LazyFP != o2.LazyFP {
		t.Error("independent writes: lazy fingerprints must be equal")
	}
	if o1.StateKey != o2.StateKey {
		t.Error("independent writes must reach the same state")
	}
}

func TestContextCancelTruncates(t *testing.T) {
	// The same long-running loop, stopped by a dead context instead
	// of MaxSteps: the stride check must truncate and flag the
	// outcome as interrupted.
	b := progdsl.New("long-ctx").AutoStart()
	x := b.Var("x")
	th := b.Thread()
	th.Const(0, 1000)
	th.While(progdsl.Ge(0, 1), func() {
		th.Read(1, x)
		th.AddConst(1, 1, 1)
		th.Write(x, 1)
		th.AddConst(0, 0, -1)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := Run(b.Build(), FirstEnabled{}, Options{MaxSteps: 3000, Ctx: ctx})
	if !out.Interrupted || !out.Truncated {
		t.Fatalf("cancelled run must be interrupted+truncated; got interrupted=%v truncated=%v",
			out.Interrupted, out.Truncated)
	}
	if len(out.Trace) >= 3000 {
		t.Fatalf("cancelled run executed %d events, should stop at the first stride check", len(out.Trace))
	}

	// A live context must not perturb the run.
	full := Run(b.Build(), FirstEnabled{}, Options{MaxSteps: 3000, Ctx: context.Background()})
	bare := Run(b.Build(), FirstEnabled{}, Options{MaxSteps: 3000})
	if full.Interrupted || full.StateKey != bare.StateKey || len(full.Trace) != len(bare.Trace) {
		t.Fatalf("live context changed the outcome: %d vs %d events", len(full.Trace), len(bare.Trace))
	}
}

// racyAsserter builds a program whose outcomes differ by schedule: a
// write/write race on x, and an assertion that fails when t1 reads
// x after t0's write.
func racyAsserter() *progdsl.Program {
	b := progdsl.New("racy-asserter").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().Read(0, x).AssertEq(0, 0).WriteConst(x, 2)
	return b.Build()
}

// TestRunnerOutcomesIndependent: a Runner reuses its machine and
// tracker across runs, but every Outcome it returned stays intact —
// failures, races and the RecordClocks clocks included — and equals
// what a one-shot Run of the same schedule reports.
func TestRunnerOutcomesIndependent(t *testing.T) {
	prog := racyAsserter()
	r := NewRunner(prog, Options{RecordClocks: true})
	schedules := [][]event.ThreadID{{0, 1, 1, 1}, {1, 1, 0, 1}, {0, 1, 1, 1}, {1, 0, 1, 1}}
	var outs, copies []Outcome
	for _, s := range schedules {
		out := r.Replay(s)
		outs = append(outs, out)
		copies = append(copies, deepCopy(out))
	}
	if len(outs[0].Failures) == 0 || len(outs[0].Races) == 0 {
		t.Fatalf("setup: schedule 0 should fail an assertion and race: %+v", outs[0])
	}
	for i, s := range schedules {
		if !reflect.DeepEqual(outs[i], copies[i]) {
			t.Errorf("schedule %d: outcome changed by later runs:\n got %+v\nwant %+v", i, outs[i], copies[i])
		}
		if once := Replay(prog, s, Options{RecordClocks: true}); !reflect.DeepEqual(once, copies[i]) {
			t.Errorf("schedule %d: runner outcome differs from a one-shot Replay:\n got %+v\nwant %+v", i, copies[i], once)
		}
	}
}

// deepCopy copies every slice an Outcome holds, clock contents
// included.
func deepCopy(o Outcome) Outcome {
	cp := o
	cp.Trace = slices.Clone(o.Trace)
	cp.Choices = slices.Clone(o.Choices)
	cp.Failures = slices.Clone(o.Failures)
	cp.Races = slices.Clone(o.Races)
	cp.HBClocks, cp.LazyClocks = nil, nil
	for i := range o.HBClocks {
		cp.HBClocks = append(cp.HBClocks, o.HBClocks[i].Clone())
		cp.LazyClocks = append(cp.LazyClocks, o.LazyClocks[i].Clone())
	}
	return cp
}
