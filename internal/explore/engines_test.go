package explore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// soundnessZoo collects exhaustively explorable programs that between
// them exercise every edge type the engines must reason about. Random
// programs whose schedule space exceeds the probe budget are skipped —
// the agreement checks need exhaustion to be meaningful.
//
// In -short mode the zoo keeps the six curated programs plus a reduced
// random sample (still ≥ the largest slice any test takes), so every
// agreement check runs a cheaper variant rather than being skipped.
// The zoo is memoised per size: many tests iterate it, and rebuilding
// it costs dozens of exhaustive probe explorations each time.
var zooCache = map[int][]model.Source{}

func soundnessZoo() []model.Source {
	size := 26
	if testing.Short() {
		size = 12
	}
	if zoo, ok := zooCache[size]; ok {
		return zoo
	}
	var zoo []model.Source
	zoo = append(zoo,
		curatedFigure1(),
		curatedDisjointLocks(),
		curatedSharedCounter(),
		curatedSpawnJoinTree(),
		curatedDeadlockable(),
		curatedMixedMutexVar(),
		curatedChanRace(),
		curatedChanCloseRace(),
		curatedChanSelect(),
	)
	probe := NewDFS()
	for seed := int64(100); seed < 140 && len(zoo) < size; seed++ {
		p := genRandomProgram(seed)
		if res := probe.Explore(p, Options{ScheduleLimit: 5000, MaxSteps: 2000}); res.HitLimit {
			continue
		}
		zoo = append(zoo, p)
	}
	zooCache[size] = zoo
	return zoo
}

// exploreStates runs the engine without limits and returns the exact
// terminal state set.
func exploreStates(t *testing.T, eng Engine, src model.Source) Result {
	t.Helper()
	res := eng.Explore(src, Options{MaxSteps: 2000, RecordStates: true})
	if res.HitLimit {
		t.Fatalf("%s on %s unexpectedly hit a limit", eng.Name(), src.Name())
	}
	if err := res.CheckInvariant(); err != nil {
		t.Fatalf("%s on %s: %v", eng.Name(), src.Name(), err)
	}
	return res
}

// TestEnginesAgreeOnStates is the central soundness check: every
// systematic engine must discover exactly the same set of terminal
// states as exhaustive DFS — partial-order reduction and caching may
// skip schedules, never states.
func TestEnginesAgreeOnStates(t *testing.T) {
	engines := []Engine{
		NewDPOR(false),
		NewDPOR(true),
		NewHBRCache(),
		NewLazyHBRCache(),
		NewLazyDPOR(),
	}
	for _, src := range soundnessZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			want := exploreStates(t, NewDFS(), src)
			for _, eng := range engines {
				got := exploreStates(t, eng, src)
				if !reflect.DeepEqual(got.States, want.States) {
					t.Errorf("%s found %d states, dfs found %d\n got=%v\nwant=%v",
						eng.Name(), got.DistinctStates, want.DistinctStates, got.States, want.States)
				}
				if got.Schedules > want.Schedules {
					t.Errorf("%s explored %d schedules, more than exhaustive DFS's %d",
						eng.Name(), got.Schedules, want.Schedules)
				}
				// Reduction engines must also agree on every safety verdict.
				if (got.Deadlocks > 0) != (want.Deadlocks > 0) {
					t.Errorf("%s deadlock verdict %v, dfs %v", eng.Name(), got.Deadlocks > 0, want.Deadlocks > 0)
				}
				if (got.AssertFailures > 0) != (want.AssertFailures > 0) {
					t.Errorf("%s assert verdict differs from dfs", eng.Name())
				}
			}
		})
	}
}

// TestEnginesAgreeOnLazyHBRs: on exhausted spaces every systematic
// engine must also count the same distinct lazy HBR classes... except
// the caching engines, which deliberately stop exploring a class once
// one representative completes — they still must find every *state*.
// DPOR variants, which prune only HBR-equivalent schedules, must agree
// with DFS on the full class counts.
func TestEnginesAgreeOnLazyHBRs(t *testing.T) {
	for _, src := range soundnessZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			want := exploreStates(t, NewDFS(), src)
			for _, eng := range []Engine{NewDPOR(false), NewDPOR(true)} {
				got := exploreStates(t, eng, src)
				if got.DistinctHBRs != want.DistinctHBRs {
					t.Errorf("%s found %d HBRs, dfs %d", eng.Name(), got.DistinctHBRs, want.DistinctHBRs)
				}
				if got.DistinctLazyHBRs != want.DistinctLazyHBRs {
					t.Errorf("%s found %d lazy HBRs, dfs %d", eng.Name(), got.DistinctLazyHBRs, want.DistinctLazyHBRs)
				}
			}
		})
	}
}

// TestHBRCachingCompletesOnePerClass: on exhausted spaces, regular HBR
// caching completes exactly one schedule per HBR class and lazy HBR
// caching exactly one per lazy class.
func TestHBRCachingCompletesOnePerClass(t *testing.T) {
	for _, src := range soundnessZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			dfs := exploreStates(t, NewDFS(), src)
			reg := exploreStates(t, NewHBRCache(), src)
			if reg.Terminals != dfs.DistinctHBRs {
				t.Errorf("hbr-caching completed %d schedules, want one per HBR class (%d)",
					reg.Terminals, dfs.DistinctHBRs)
			}
			lazy := exploreStates(t, NewLazyHBRCache(), src)
			if lazy.Terminals != dfs.DistinctLazyHBRs {
				t.Errorf("lazy-hbr-caching completed %d schedules, want one per lazy class (%d)",
					lazy.Terminals, dfs.DistinctLazyHBRs)
			}
			if lazy.Terminals > reg.Terminals {
				t.Errorf("lazy caching completed more schedules (%d) than regular (%d)",
					lazy.Terminals, reg.Terminals)
			}
		})
	}
}

// TestDPORReduction: DPOR must explore no more schedules than DFS and
// strictly fewer on programs with genuine independence.
func TestDPORReduction(t *testing.T) {
	src := curatedSpawnJoinTree() // two fully independent children
	dfs := exploreStates(t, NewDFS(), src)
	dpor := exploreStates(t, NewDPOR(false), src)
	if dpor.Schedules >= dfs.Schedules {
		t.Errorf("DPOR explored %d schedules, DFS %d: expected strict reduction", dpor.Schedules, dfs.Schedules)
	}
	sleep := exploreStates(t, NewDPOR(true), src)
	if sleep.Schedules > dpor.Schedules {
		t.Errorf("sleep sets increased work: %d > %d", sleep.Schedules, dpor.Schedules)
	}
}

// TestScheduleLimitHonoured: every engine stops at the limit and
// reports it.
func TestScheduleLimitHonoured(t *testing.T) {
	src := curatedSharedCounter()
	for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewDPOR(true), NewHBRCache(), NewLazyHBRCache(), NewLazyDPOR(), NewRandomWalk(3)} {
		res := eng.Explore(src, Options{ScheduleLimit: 5, MaxSteps: 2000})
		if res.Schedules != 5 || !res.HitLimit {
			t.Errorf("%s: schedules=%d hitLimit=%v, want 5/true", eng.Name(), res.Schedules, res.HitLimit)
		}
	}
}

// TestReplayVsSnapshotIdentical: forcing the replay backend instead of
// the default undo log (which rewinds through coroutine snapshots) must
// not change any count on any engine (the ablation knob is purely
// mechanical).
func TestReplayVsSnapshotIdentical(t *testing.T) {
	for _, src := range soundnessZoo()[:10] {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewLazyHBRCache()} {
				undo := eng.Explore(src, Options{MaxSteps: 2000})
				repl := eng.Explore(src, Options{MaxSteps: 2000, Backend: BackendReplay})
				if undo.Schedules != repl.Schedules ||
					undo.DistinctHBRs != repl.DistinctHBRs ||
					undo.DistinctLazyHBRs != repl.DistinctLazyHBRs ||
					undo.DistinctStates != repl.DistinctStates {
					t.Errorf("%s: undo and replay runs disagree:\n undo=%v\n repl=%v",
						eng.Name(), undo.String(), repl.String())
				}
				if repl.Events <= undo.Events && undo.Schedules > 1 {
					t.Logf("%s: replay executed %d events vs undo %d (informational)",
						eng.Name(), repl.Events, undo.Events)
				}
			}
		})
	}
}

// TestRandomWalkFindsViolationsEventually: on the deadlockable program
// a seeded random walk with a healthy budget finds the deadlock.
func TestRandomWalkFindsViolationsEventually(t *testing.T) {
	res := NewRandomWalk(1).Explore(curatedDeadlockable(), Options{ScheduleLimit: 200, MaxSteps: 2000})
	if res.Deadlocks == 0 {
		t.Error("random walk (seed 1, 200 schedules) should hit the deadlock")
	}
	if res.FirstViolation == nil || res.ViolationKind != "deadlock" {
		t.Errorf("violation not captured: kind=%q", res.ViolationKind)
	}
}

// TestViolationScheduleReplays: the recorded FirstViolation schedule
// reproduces the violation through exec.Replay, the independent
// single-execution loop every counterexample artifact is replayed
// through, which shares no code with the engines' cursor.
func TestViolationScheduleReplays(t *testing.T) {
	res := NewDFS().Explore(curatedDeadlockable(), Options{MaxSteps: 2000})
	if res.ViolationKind != "deadlock" {
		t.Fatalf("DFS must find the deadlock, got %q", res.ViolationKind)
	}
	out := exec.Replay(curatedDeadlockable(), res.FirstViolation, exec.Options{MaxSteps: 2000})
	if !out.Deadlock || out.ViolationKind() != res.ViolationKind {
		t.Errorf("replaying the recorded schedule must reproduce the deadlock, got %q", out.ViolationKind())
	}
	if !slices.Equal(out.Choices, res.FirstViolation) {
		t.Errorf("replay took schedule %v, want the recorded %v", out.Choices, res.FirstViolation)
	}
}

// TestResultStringAndInvariantErrors covers the reporting paths.
func TestResultStringAndInvariantErrors(t *testing.T) {
	r := Result{Program: "p", Engine: "e", Schedules: 1, DistinctHBRs: 2}
	if err := r.CheckInvariant(); err == nil {
		t.Error("hbrs > schedules must violate the invariant")
	}
	r = Result{DistinctStates: 3, DistinctLazyHBRs: 2, DistinctHBRs: 2, Schedules: 2}
	if err := r.CheckInvariant(); err == nil {
		t.Error("states > lazy must violate the invariant")
	}
	ok := Result{Program: "p", Engine: "e", Schedules: 4, DistinctHBRs: 3, DistinctLazyHBRs: 2, DistinctStates: 1}
	if err := ok.CheckInvariant(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if ok.String() == "" {
		t.Error("String must render")
	}
}

// TestEngineNames pins the reported names.
func TestEngineNames(t *testing.T) {
	for eng, want := range map[Engine]string{
		NewDFS():          "dfs",
		NewDPOR(false):    "dpor",
		NewDPOR(true):     "dpor+sleep",
		NewHBRCache():     "hbr-caching",
		NewLazyHBRCache(): "lazy-hbr-caching",
		NewLazyDPOR():     "lazy-dpor",
		NewRandomWalk(1):  "random",
	} {
		if eng.Name() != want {
			t.Errorf("engine name %q, want %q", eng.Name(), want)
		}
	}
}

// TestTooManyThreadsPanics guards the tset encoding.
func TestTooManyThreadsPanics(t *testing.T) {
	b := progdsl.New(fmt.Sprintf("wide-%d", MaxThreads+1)).AutoStart()
	x := b.Var("x")
	for i := 0; i <= MaxThreads; i++ {
		b.Thread().Read(0, x)
	}
	defer func() {
		if recover() == nil {
			t.Error("exploring >64 threads must panic loudly")
		}
	}()
	NewDFS().Explore(b.Build(), Options{ScheduleLimit: 1})
}
