package repro

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// buggyZoo builds small programs with one schedule-dependent violation
// each, spanning every failure class the framework reports.
func buggyZoo() []model.Source {
	return []model.Source{
		deadlockTwoLocks(),
		racyAssertCounter(),
		racyWriters(),
		misuseUnlock(),
		chanLostWakeupDeadlock(),
		chanSendOnClosed(),
	}
}

// deadlockTwoLocks: the classic opposite-order two-lock deadlock.
func deadlockTwoLocks() model.Source {
	b := progdsl.New("zoo-deadlock").AutoStart()
	ma, mb := b.Mutex("a"), b.Mutex("b")
	b.Thread().Lock(ma).Lock(mb).Unlock(mb).Unlock(ma)
	b.Thread().Lock(mb).Lock(ma).Unlock(ma).Unlock(mb)
	return b.Build()
}

// racyAssertCounter: two unsynchronised increments plus a checker that
// asserts no update was lost — fails only on interleaved schedules.
func racyAssertCounter() model.Source {
	b := progdsl.New("zoo-racy-assert").AutoStart()
	x := b.Var("x")
	t0 := b.Thread().Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	t1 := b.Thread().Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	b.Thread().Join(t0).Join(t1).Read(1, x).AssertEq(1, 2)
	return b.Build()
}

// racyWriters: a pure data race, no assertion — the violation class is
// "data race" on every schedule.
func racyWriters() model.Source {
	b := progdsl.New("zoo-racy-writers").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(x, 2)
	return b.Build()
}

// misuseUnlock: thread 1 unlocks a mutex it never acquired; whether
// the misuse fires under contention depends on the schedule reaching
// t1's unlock while t0 holds (or not) — either way a lock error.
func misuseUnlock() model.Source {
	b := progdsl.New("zoo-misuse-unlock").AutoStart()
	m := b.Mutex("m")
	x := b.Var("x")
	b.Thread().Lock(m).WriteConst(x, 1).Unlock(m)
	b.Thread().Unlock(m)
	return b.Build()
}

// chanLostWakeupDeadlock: a non-blocking receive can steal the single
// buffered value a blocking receiver is owed; thief-first schedules
// leave the receiver blocked forever — a channel deadlock.
func chanLostWakeupDeadlock() model.Source {
	b := progdsl.New("zoo-chan-lost-wakeup").AutoStart()
	c := b.Chan("c", 1)
	stolen := b.Var("stolen")
	b.Thread().SendConst(c, 5)
	thief := b.Thread()
	thief.TryRecv(0, 1, c)
	thief.If(progdsl.Eq(1, 1), func() { thief.WriteConst(stolen, 1) }, nil)
	b.Thread().Recv(0, 1, c)
	return b.Build()
}

// chanSendOnClosed: close racing a send on a buffered channel — the
// close-first schedules make the send a panic violation.
func chanSendOnClosed() model.Source {
	b := progdsl.New("zoo-chan-send-closed").AutoStart()
	c := b.Chan("c", 1)
	b.Thread().Close(c)
	b.Thread().SendConst(c, 1)
	return b.Build()
}

// firstBugEngineSpecs is the engine grid the first-bug contract is
// pinned over: every sequential engine plus the parallel searches,
// including work-stealing pdpor at 1, 2 and 4 workers.
var firstBugEngineSpecs = []string{
	"dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching", "lazy-hbr-caching",
	"pb:2", "db:3", "chess-pb:2", "random:7", "pct:3", "pos:7",
	"pdfs:2", "pdpor:1", "pdpor:2", "pdpor:4", "prandom:7:2",
}

// parallelSpec reports whether an engine spec names one of the
// parallel searches, which may have sibling schedules in flight when
// the first bug lands.
func parallelSpec(spec string) bool {
	for _, p := range []string{"pdfs", "pdpor", "prandom"} {
		if strings.HasPrefix(spec, p) {
			return true
		}
	}
	return false
}

// TestStopAtFirstBugAllEngines: with StopAtFirstBug every engine stops
// the moment it sees a violation, reports the schedules-to-first-bug
// index, and the recorded witness captures and replays to the same
// failure kind.
func TestStopAtFirstBugAllEngines(t *testing.T) {
	for _, src := range buggyZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			for _, spec := range firstBugEngineSpecs {
				eng, err := campaign.EngineSpec(spec).Build()
				if err != nil {
					t.Fatalf("engine %q: %v", spec, err)
				}
				res := eng.Explore(src, explore.Options{
					ScheduleLimit: 20000, MaxSteps: 500, StopAtFirstBug: true,
				})
				if res.FirstViolation == nil {
					t.Errorf("%s found no violation in %d schedules", spec, res.Schedules)
					continue
				}
				if res.FirstBugSchedule < 1 || res.FirstBugSchedule > res.Schedules {
					t.Errorf("%s: first-bug index %d outside [1, %d]", spec, res.FirstBugSchedule, res.Schedules)
				}
				if !parallelSpec(spec) {
					// Sequential engines stop on the violating schedule
					// exactly; parallel ones may have concurrent
					// schedules in flight.
					if res.FirstBugSchedule != res.Schedules {
						t.Errorf("%s: stopped after %d schedules but the bug was schedule %d",
							spec, res.Schedules, res.FirstBugSchedule)
					}
				}
				w, ok := FromResult(res)
				if !ok {
					t.Fatalf("%s: FromResult lost the witness", spec)
				}
				a, err := Capture(src, w, 500)
				if err != nil {
					t.Errorf("%s: %v", spec, err)
					continue
				}
				if _, err := a.Replay(src); err != nil {
					t.Errorf("%s: %v", spec, err)
				}
				// The replayed outcome's classification agrees with the
				// engine recorder's.
				out := exec.Replay(src, res.FirstViolation, exec.Options{MaxSteps: 500})
				if kind := out.ViolationKind(); kind != res.ViolationKind {
					t.Errorf("%s: replay classifies %q, recorder said %q", spec, kind, res.ViolationKind)
				}
			}
		})
	}
}

// TestOnViolationHook: the hook fires with a witness consistent with
// the recorded first violation.
func TestOnViolationHook(t *testing.T) {
	src := deadlockTwoLocks()
	var seen []explore.Witness
	res := explore.NewDFS().Explore(src, explore.Options{
		MaxSteps:       500,
		StopAtFirstBug: true,
		OnViolation:    func(w explore.Witness) { seen = append(seen, w) },
	})
	if len(seen) != 1 {
		t.Fatalf("hook fired %d times under StopAtFirstBug, want 1", len(seen))
	}
	w := seen[0]
	if w.Kind != res.ViolationKind || w.Schedule != res.FirstBugSchedule ||
		w.Program != src.Name() || w.Engine != "dfs" {
		t.Errorf("witness %+v inconsistent with result (kind=%q idx=%d)", w, res.ViolationKind, res.FirstBugSchedule)
	}
	if len(w.Choices) != len(res.FirstViolation) {
		t.Errorf("witness has %d choices, result %d", len(w.Choices), len(res.FirstViolation))
	}
	if w.StateSig == (model.StateSig{}) {
		t.Error("witness is missing the terminal state digest")
	}
	// Without StopAtFirstBug, the hook fires once per violating
	// terminal execution.
	seen = nil
	full := explore.NewDFS().Explore(src, explore.Options{
		MaxSteps:    500,
		OnViolation: func(w explore.Witness) { seen = append(seen, w) },
	})
	if len(seen) != full.Deadlocks {
		t.Errorf("hook fired %d times, result counted %d deadlocks", len(seen), full.Deadlocks)
	}
}

// TestArtifactRoundTripAndMinimize is the end-to-end contract on the
// buggy zoo: capture → write → read → replay reproduces identically,
// and minimization emits a schedule that reproduces the same failure
// kind with no more choices and no more preemptions.
func TestArtifactRoundTripAndMinimize(t *testing.T) {
	dir := t.TempDir()
	for _, src := range buggyZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			res := explore.NewDFS().Explore(src, explore.Options{MaxSteps: 500, StopAtFirstBug: true})
			w, ok := FromResult(res)
			if !ok {
				t.Fatal("no violation found")
			}
			a, err := Capture(src, w, 500)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, src.Name()+".json")
			if err := a.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := back.Replay(src); err != nil {
				t.Fatal(err)
			}

			min, stats, err := Minimize(src, back, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !min.Minimized {
				t.Error("minimized artifact not flagged")
			}
			if min.Kind != a.Kind {
				t.Errorf("minimization changed the failure kind: %q → %q", a.Kind, min.Kind)
			}
			if stats.MinChoices > stats.OriginalChoices {
				t.Errorf("minimized schedule has %d choices, original %d", stats.MinChoices, stats.OriginalChoices)
			}
			if stats.MinPreemptions > stats.OriginalPreemptions {
				t.Errorf("minimized schedule has %d preemptions, original %d", stats.MinPreemptions, stats.OriginalPreemptions)
			}
			if _, err := min.Replay(src); err != nil {
				t.Errorf("minimized artifact does not replay: %v", err)
			}
			t.Logf("%s: %d→%d choices, %d→%d preemptions, %d constraints, %d replays",
				src.Name(), stats.OriginalChoices, stats.MinChoices,
				stats.OriginalPreemptions, stats.MinPreemptions, stats.Constraints, stats.Replays)
		})
	}
}

// TestCorpusFirstBugArtifacts sweeps the benchmark corpus the way the
// acceptance criterion demands: every buggy benchmark must yield an
// artifact whose replay reproduces the identical failure kind and
// state digest, and whose minimized form reproduces the same failure
// with no more choices and no more preemptions.
func TestCorpusFirstBugArtifacts(t *testing.T) {
	limit, maxSteps := 20000, 2000
	if testing.Short() {
		limit, maxSteps = 2000, 500
	}
	buggy := 0
	for _, bm := range bench.All() {
		res := explore.NewDPOR(false).Explore(bm.Program, explore.Options{
			ScheduleLimit: limit, MaxSteps: maxSteps, StopAtFirstBug: true,
		})
		w, ok := FromResult(res)
		if !ok {
			continue
		}
		buggy++
		a, err := Capture(bm.Program, w, maxSteps)
		if err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		if _, err := a.Replay(bm.Program); err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		min, stats, err := Minimize(bm.Program, a, 0)
		if err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		if stats.MinChoices > stats.OriginalChoices || stats.MinPreemptions > stats.OriginalPreemptions {
			t.Errorf("%s: minimization regressed: %d→%d choices, %d→%d preemptions", bm.Name,
				stats.OriginalChoices, stats.MinChoices, stats.OriginalPreemptions, stats.MinPreemptions)
		}
		if _, err := min.Replay(bm.Program); err != nil {
			t.Errorf("%s: minimized artifact does not replay: %v", bm.Name, err)
		}
	}
	if buggy == 0 {
		t.Fatal("no buggy benchmark found; the corpus sweep is vacuous")
	}
	t.Logf("captured, replayed and minimized artifacts for %d buggy benchmarks", buggy)
}

// TestMinimizeShrinksRandomWitness: a random-walk witness carries many
// incidental preemptions; minimization must strip them down to the few
// the bug actually needs (the paper's observation) while preserving
// the failure kind.
func TestMinimizeShrinksRandomWitness(t *testing.T) {
	phil, ok := bench.ByName("philosophers-3")
	if !ok {
		t.Fatal("unknown benchmark philosophers-3")
	}
	cases := []struct {
		src  model.Source
		kind string
	}{
		{phil.Program, "deadlock"},
		{racyAssertCounter(), "assertion failure"},
	}
	for _, tc := range cases {
		name := tc.src.Name()
		res := explore.NewRandomWalk(99).Explore(tc.src, explore.Options{
			ScheduleLimit: 2000, MaxSteps: 500, StopAtFirstBug: true,
		})
		w, ok := FromResult(res)
		if !ok {
			t.Fatalf("%s: random walk found no violation in %d schedules", name, res.Schedules)
		}
		if w.Kind != tc.kind {
			t.Fatalf("%s: witness kind %q, want %q", name, w.Kind, tc.kind)
		}
		a, err := Capture(tc.src, w, 500)
		if err != nil {
			t.Fatal(err)
		}
		min, stats, err := Minimize(tc.src, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		// These bugs need explicit interleaving constraints (the
		// default schedule is clean), but far fewer than the raw
		// random witness carries.
		if stats.Constraints == 0 {
			t.Errorf("%s: %s reproduced with no constraints; expected a schedule-dependent bug", name, tc.kind)
		}
		if stats.Constraints >= stats.OriginalChoices {
			t.Errorf("%s: ddmin kept all %d constraints", name, stats.Constraints)
		}
		if stats.MinPreemptions > stats.OriginalPreemptions {
			t.Errorf("%s: minimization raised preemptions %d→%d", name, stats.OriginalPreemptions, stats.MinPreemptions)
		}
		if _, err := min.Replay(tc.src); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d→%d choices, %d→%d preemptions, %d constraints, %d replays",
			name, stats.OriginalChoices, stats.MinChoices,
			stats.OriginalPreemptions, stats.MinPreemptions, stats.Constraints, stats.Replays)
	}
}

// minimizeBytesPerCandidate bounds the heap bytes Minimize spends per
// validation replay. One runner serves every candidate, resetting its
// machine and tracker in place, which measures ≈2.8 KB per candidate on
// philosophers-3; building both per replay measures ≈5.2 KB.
const minimizeBytesPerCandidate = 4000

// TestMinimizeBytesPerCandidate keeps per-candidate machine and
// tracker rebuilds out of ddmin's replay loop.
func TestMinimizeBytesPerCandidate(t *testing.T) {
	phil, ok := bench.ByName("philosophers-3")
	if !ok {
		t.Fatal("unknown benchmark philosophers-3")
	}
	res := explore.NewRandomWalk(99).Explore(phil.Program, explore.Options{
		ScheduleLimit: 2000, MaxSteps: 500, StopAtFirstBug: true,
	})
	w, ok := FromResult(res)
	if !ok {
		t.Fatal("random walk found no deadlock on philosophers-3")
	}
	a, err := Capture(phil.Program, w, 500)
	if err != nil {
		t.Fatal(err)
	}
	Minimize(phil.Program, a, 0) // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats, err := Minimize(phil.Program, a, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / uint64(stats.Replays); got > minimizeBytesPerCandidate {
		t.Errorf("%d bytes per candidate over %d replays, want ≤ %d (machine or tracker rebuilt per replay?)",
			got, stats.Replays, minimizeBytesPerCandidate)
	}
}

// TestReplayMismatchDiagnostics: replaying against the wrong program
// or with a tampered digest produces a diagnostic instead of silently
// diverging.
func TestReplayMismatchDiagnostics(t *testing.T) {
	src := racyAssertCounter()
	res := explore.NewDFS().Explore(src, explore.Options{MaxSteps: 500, StopAtFirstBug: true})
	w, _ := FromResult(res)
	a, err := Capture(src, w, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Replay(deadlockTwoLocks()); err == nil {
		t.Error("replaying against a different program must fail")
	}
	tampered := a
	tampered.StateSig = strings.Repeat("0", 32)
	if _, err := tampered.Replay(src); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("tampered digest must produce a digest diagnostic, got %v", err)
	}
	wrongKind := a
	wrongKind.Kind = "deadlock"
	if _, err := wrongKind.Replay(src); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("wrong expected kind must produce a kind diagnostic, got %v", err)
	}

	// A witness that does not reproduce is rejected at capture time.
	bad := w
	bad.Kind = "deadlock"
	if _, err := Capture(src, bad, 500); err == nil {
		t.Error("capturing a non-reproducing witness must fail")
	}

	// Version guards.
	var buf bytes.Buffer
	v := a
	v.Version = 99
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("future artifact version must be rejected")
	}
}

// TestPreemptionsCounting pins the preemption accounting on
// hand-built schedules: switches away from blocked or finished threads
// are free, switches away from runnable threads cost one.
func TestPreemptionsCounting(t *testing.T) {
	src := racyAssertCounter()
	// The first-enabled schedule runs each thread to its blocking
	// point: no preemptions.
	free := exec.Replay(src, nil, exec.Options{MaxSteps: 500})
	if p := Preemptions(src, free.Choices); p != 0 {
		t.Errorf("first-enabled schedule counts %d preemptions, want 0", p)
	}
	// Interleaving the two increments costs two preemptions (t0→t1
	// after t0's read, t1→t0 after t1's read, both while the preempted
	// thread stays runnable); the remaining switches are free — the
	// previous thread terminated on its write.
	inter := []event.ThreadID{0, 1, 0, 1, 2, 2, 2, 2}
	if p := Preemptions(src, inter); p != 2 {
		t.Errorf("interleaved schedule counts %d preemptions, want 2", p)
	}
}
