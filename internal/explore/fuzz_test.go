package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/progdsl"
)

// fuzzProbeLimit bounds each engine run on a fuzz-decoded program; the
// deep agreement checks apply only when exhaustive DFS finishes under
// it, so adversarial inputs cannot stall the fuzzer.
const fuzzProbeLimit = 3000

// checkEngineEquivalence is the differential oracle shared by the fuzz
// target and the committed-corpus regression test: decode data into a
// program, then require that
//
//   - every engine × backend run satisfies the paper's counting chain;
//   - each engine's Result counters are byte-identical across the
//     undo-log and replay backends;
//   - when exhaustive DFS exhausts the space, every complete engine
//     (DPOR ± sleep sets, lazy DPOR, HBR/lazy-HBR caching) agrees with
//     it on the distinct-state/HBR/lazy-HBR counts and on the state
//     set itself, and preemption and delay bounding under a bound that
//     cannot bind run exactly its schedules.
func checkEngineEquivalence(t *testing.T, data []byte) {
	src := progdsl.FromBytes("fuzz", data)
	if src == nil {
		t.Skip("input too short to decode")
	}
	mkOpt := func(b BackendKind) Options {
		return Options{ScheduleLimit: fuzzProbeLimit, MaxSteps: 500, RecordStates: true, Backend: b}
	}

	dfs := NewDFS().Explore(src, mkOpt(BackendUndo))
	if err := dfs.CheckInvariant(); err != nil {
		t.Fatalf("dfs: %v", err)
	}
	exhausted := !dfs.HitLimit && dfs.Truncated == 0

	engines := []struct {
		eng Engine
		// fullCoverage engines must match DFS's distinct HBR and lazy
		// HBR counts, not just the state set: DPOR prunes only
		// HBR-equivalent schedules. The caching and lazy-DPOR engines
		// deliberately stop exploring an equivalence class early, so
		// only their state coverage is complete.
		fullCoverage bool
		// partial engines' bound binds, so they search part of the
		// space by design: only the counting chain and the backend
		// identity apply.
		partial bool
	}{
		{NewDFS(), true, false},
		{NewDPOR(false), true, false},
		{NewDPOR(true), true, false},
		{NewLazyDPOR(), false, false},
		{NewHBRCache(), false, false},
		{NewLazyHBRCache(), false, false},
		{NewPreemptionBounded(1), false, true},
		{NewDelayBounded(1), false, true},
	}
	for _, e := range engines {
		eng := e.eng
		undo := eng.Explore(src, mkOpt(BackendUndo))
		repl := eng.Explore(src, mkOpt(BackendReplay))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		if got, want := countersOf(undo), countersOf(repl); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if exhausted && !undo.HitLimit && !e.partial {
			if e.fullCoverage &&
				(undo.DistinctHBRs != dfs.DistinctHBRs || undo.DistinctLazyHBRs != dfs.DistinctLazyHBRs) {
				t.Errorf("%s HBR coverage disagrees with exhaustive DFS:\n %s=%+v\n dfs=%+v",
					eng.Name(), eng.Name(), countersOf(undo), countersOf(dfs))
			}
			if undo.DistinctStates != dfs.DistinctStates || !reflect.DeepEqual(undo.States, dfs.States) {
				t.Errorf("%s found a different state set than exhaustive DFS (%d vs %d states)",
					eng.Name(), undo.DistinctStates, dfs.DistinctStates)
			}
			if (undo.AssertFailures > 0) != (dfs.AssertFailures > 0) ||
				(undo.Deadlocks > 0) != (dfs.Deadlocks > 0) ||
				(undo.Races > 0) != (dfs.Races > 0) {
				t.Errorf("%s safety verdicts disagree with exhaustive DFS", eng.Name())
			}
		}
	}

	// Preemption and delay bounding under a bound no execution can
	// reach (a step spends at most one preemption, or one delay per
	// other thread) prune nothing: when DFS exhausts the space they
	// must run exactly its schedules, so every schedule-set counter —
	// HBRs, lazy HBRs, states, the state set, the verdict counts —
	// matches DFS's. Only the order differs, and with it the first
	// violation found.
	if exhausted {
		const unbound = 500 * MaxThreads
		want := countersOf(dfs)
		want.ViolationKind, want.FirstViolation = "", ""
		for _, eng := range []Engine{NewPreemptionBounded(unbound), NewDelayBounded(unbound)} {
			res := eng.Explore(src, mkOpt(BackendUndo))
			got := countersOf(res)
			got.ViolationKind, got.FirstViolation = "", ""
			if got != want || !reflect.DeepEqual(res.States, dfs.States) {
				t.Errorf("%s disagrees with exhaustive DFS:\n %+v\n dfs=%+v", eng.Name(), got, want)
			}
		}
	}

	// The sampling engines (random walk, PCT, POS) explore a seeded
	// random subset of the space rather than all of it, so the oracle
	// weakens to: the counting invariant holds, every backend reports
	// byte-identical counters (walk i is a pure function of (seed, i)
	// and the program), and — when exhaustive DFS finished — every
	// terminal state the sampler reached is one DFS reached, and any
	// violation it found is a violation class DFS confirmed exists.
	for _, eng := range []Engine{
		NewRandomWalk(3),
		NewPCT(3, 1),
		NewPCT(3, 3),
		NewPOS(3),
	} {
		sOpt := func(b BackendKind) Options {
			o := mkOpt(b)
			o.ScheduleLimit = 40
			return o
		}
		undo := eng.Explore(src, sOpt(BackendUndo))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		if got, want := countersOf(undo), countersOf(eng.Explore(src, sOpt(BackendReplay))); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if exhausted {
			dfsStates := make(map[string]bool, len(dfs.States))
			for _, s := range dfs.States {
				dfsStates[s] = true
			}
			for _, s := range undo.States {
				if !dfsStates[s] {
					t.Errorf("%s reached terminal state %q that exhaustive DFS never saw", eng.Name(), s)
				}
			}
			if (undo.AssertFailures > 0 && dfs.AssertFailures == 0) ||
				(undo.Deadlocks > 0 && dfs.Deadlocks == 0) ||
				(undo.Races > 0 && dfs.Races == 0) ||
				(undo.LockErrors > 0 && dfs.LockErrors == 0) {
				t.Errorf("%s found a violation class exhaustive DFS says cannot occur", eng.Name())
			}
		}
	}
}

// FuzzEngineEquivalence is the native fuzz target behind the committed
// corpus in testdata/fuzz/FuzzEngineEquivalence. Run it open-endedly
// with
//
//	go test -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/explore
//
// Plain `go test` replays the committed corpus as ordinary subtests.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 1, 2, 17, 3, 33, 4, 49})
	for _, data := range progdsl.FuzzCorpus(8, 42) {
		f.Add(data)
	}
	f.Fuzz(checkEngineEquivalence)
}

// TestEngineEquivalenceCorpus replays a bounded deterministic slice of
// the fuzz input space in the normal -short suite, so the differential
// oracle gates every CI run rather than only explicit fuzz sessions.
// Each input is self-contained, so the inputs run in parallel.
func TestEngineEquivalenceCorpus(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	for i, data := range progdsl.FuzzCorpus(n, 7) {
		i, data := i, data
		t.Run(fmt.Sprintf("corpus-%03d", i), func(t *testing.T) {
			t.Parallel()
			checkEngineEquivalence(t, data)
		})
	}
}

// checkChanEquivalence is the message-passing differential oracle:
// decode data with the channel decoder (sends, receives, closes,
// selects over a small channel universe), then require exactly what
// the healthy oracle requires — counting chain, byte-identical
// counters across the two backends, full-coverage agreement with
// exhaustive DFS — plus agreement on the channel-specific verdicts:
// deadlocks (a blocked receive nobody serves) and panics (send on
// closed, close of closed).
func checkChanEquivalence(t *testing.T, data []byte) {
	src := progdsl.ChanFromBytes("chan-fuzz", data)
	if src == nil {
		t.Skip("input too short to decode")
	}
	mkOpt := func(b BackendKind) Options {
		return Options{ScheduleLimit: fuzzProbeLimit, MaxSteps: 500, RecordStates: true, Backend: b}
	}

	dfs := NewDFS().Explore(src, mkOpt(BackendUndo))
	if err := dfs.CheckInvariant(); err != nil {
		t.Fatalf("dfs: %v", err)
	}
	exhausted := !dfs.HitLimit && dfs.Truncated == 0

	engines := []struct {
		eng          Engine
		fullCoverage bool
	}{
		{NewDFS(), true},
		{NewDPOR(false), true},
		{NewDPOR(true), true},
		{NewLazyDPOR(), false},
		{NewHBRCache(), false},
		{NewLazyHBRCache(), false},
	}
	for _, e := range engines {
		eng := e.eng
		undo := eng.Explore(src, mkOpt(BackendUndo))
		repl := eng.Explore(src, mkOpt(BackendReplay))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		if got, want := countersOf(undo), countersOf(repl); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if exhausted && !undo.HitLimit {
			if e.fullCoverage &&
				(undo.DistinctHBRs != dfs.DistinctHBRs || undo.DistinctLazyHBRs != dfs.DistinctLazyHBRs) {
				t.Errorf("%s HBR coverage disagrees with exhaustive DFS:\n %s=%+v\n dfs=%+v",
					eng.Name(), eng.Name(), countersOf(undo), countersOf(dfs))
			}
			if undo.DistinctStates != dfs.DistinctStates || !reflect.DeepEqual(undo.States, dfs.States) {
				t.Errorf("%s found a different state set than exhaustive DFS (%d vs %d states)",
					eng.Name(), undo.DistinctStates, dfs.DistinctStates)
			}
			if (undo.AssertFailures > 0) != (dfs.AssertFailures > 0) ||
				(undo.Panics > 0) != (dfs.Panics > 0) ||
				(undo.Deadlocks > 0) != (dfs.Deadlocks > 0) ||
				(undo.Races > 0) != (dfs.Races > 0) {
				t.Errorf("%s safety verdicts disagree with exhaustive DFS", eng.Name())
			}
		}
	}

	// Samplers: counting invariant, exact backend identity, and
	// verdict containment against the exhausted space.
	for _, eng := range []Engine{
		NewRandomWalk(3),
		NewPCT(3, 2),
		NewPOS(3),
	} {
		sOpt := func(b BackendKind) Options {
			o := mkOpt(b)
			o.ScheduleLimit = 40
			return o
		}
		undo := eng.Explore(src, sOpt(BackendUndo))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		if got, want := countersOf(undo), countersOf(eng.Explore(src, sOpt(BackendReplay))); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if exhausted {
			dfsStates := make(map[string]bool, len(dfs.States))
			for _, s := range dfs.States {
				dfsStates[s] = true
			}
			for _, s := range undo.States {
				if !dfsStates[s] {
					t.Errorf("%s reached terminal state %q that exhaustive DFS never saw", eng.Name(), s)
				}
			}
			if (undo.AssertFailures > 0 && dfs.AssertFailures == 0) ||
				(undo.Panics > 0 && dfs.Panics == 0) ||
				(undo.Deadlocks > 0 && dfs.Deadlocks == 0) ||
				(undo.Races > 0 && dfs.Races == 0) {
				t.Errorf("%s found a violation class exhaustive DFS says cannot occur", eng.Name())
			}
		}
	}
}

// FuzzChanEquivalence is the native fuzz target behind the committed
// corpus in testdata/fuzz/FuzzChanEquivalence: the channel-subsystem
// twin of FuzzEngineEquivalence, over programs built from
// send/recv/close/select.
func FuzzChanEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})                       // lone send
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0})              // send vs blocking recv
	f.Add([]byte{0, 1, 1, 0, 0, 0, 1, 3, 0, 1, 0})  // two channels, close racing a send
	f.Add([]byte{1, 1, 2, 4, 0, 0, 0, 0, 1, 1, 0})  // select vs sends on both channels
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 0, 0})        // tryrecv theft then blocking recv
	f.Add([]byte{1, 0, 0, 5, 0, 0, 16, 3, 0, 1, 0}) // recv-into-store, send, close, recv
	f.Add([]byte{0, 1, 9, 4, 1, 4, 0, 0, 0, 3, 1})  // duelling selects with a default arm
	for _, data := range progdsl.FuzzCorpus(8, 2025) {
		f.Add(data)
	}
	f.Fuzz(checkChanEquivalence)
}

// TestChanEquivalenceCorpus replays a bounded deterministic slice of
// the channel input space in the normal -short suite.
func TestChanEquivalenceCorpus(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	for i, data := range progdsl.FuzzCorpus(n, 55) {
		i, data := i, data
		t.Run(fmt.Sprintf("corpus-%03d", i), func(t *testing.T) {
			checkChanEquivalence(t, data)
		})
	}
}

// checkHostileEquivalence is the fault-containment differential
// oracle: decode data with the hostile decoder (panicking and
// diverging thread bodies allowed), then require that
//
//   - every engine × backend run satisfies the counting chain AND the
//     schedule accounting identity (divergences included);
//   - each engine's counters — Divergences and Panics included — are
//     byte-identical across the undo and replay backends
//     (progdsl announces divergence deterministically, so there is no
//     wall-clock anywhere in this oracle);
//   - when exhaustive DFS finished with no divergence in the space,
//     the complete engines agree with it exactly as in the healthy
//     oracle, panic verdicts included. A diverging branch is cut at
//     its divergence point, leaving the subtree beyond it legitimately
//     unexplored, so cross-engine state-set equality applies only to
//     divergence-free spaces.
func checkHostileEquivalence(t *testing.T, data []byte) {
	src := progdsl.HostileFromBytes("hostile-fuzz", data)
	if src == nil {
		t.Skip("input too short to decode")
	}
	mkOpt := func(b BackendKind) Options {
		return Options{ScheduleLimit: fuzzProbeLimit, MaxSteps: 500, RecordStates: true, Backend: b}
	}
	accounting := func(name string, r Result) {
		t.Helper()
		if got := r.Terminals + r.Pruned + r.Truncated + r.SleepBlocked + r.Divergences; got != r.Schedules {
			t.Errorf("%s: accounting %d != schedules %d (%+v)", name, got, r.Schedules, r)
		}
	}

	dfs := NewDFS().Explore(src, mkOpt(BackendUndo))
	if err := dfs.CheckInvariant(); err != nil {
		t.Fatalf("dfs: %v", err)
	}
	accounting("dfs", dfs)
	exhausted := !dfs.HitLimit && dfs.Truncated == 0 && dfs.Divergences == 0

	engines := []struct {
		eng          Engine
		fullCoverage bool
	}{
		{NewDFS(), true},
		{NewDPOR(false), true},
		{NewDPOR(true), true},
		{NewLazyDPOR(), false},
		{NewHBRCache(), false},
		{NewLazyHBRCache(), false},
	}
	for _, e := range engines {
		eng := e.eng
		undo := eng.Explore(src, mkOpt(BackendUndo))
		repl := eng.Explore(src, mkOpt(BackendReplay))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		accounting(eng.Name(), undo)
		if got, want := countersOf(undo), countersOf(repl); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if exhausted && !undo.HitLimit && undo.Divergences == 0 {
			if e.fullCoverage &&
				(undo.DistinctHBRs != dfs.DistinctHBRs || undo.DistinctLazyHBRs != dfs.DistinctLazyHBRs) {
				t.Errorf("%s HBR coverage disagrees with exhaustive DFS:\n %s=%+v\n dfs=%+v",
					eng.Name(), eng.Name(), countersOf(undo), countersOf(dfs))
			}
			if undo.DistinctStates != dfs.DistinctStates || !reflect.DeepEqual(undo.States, dfs.States) {
				t.Errorf("%s found a different state set than exhaustive DFS (%d vs %d states)",
					eng.Name(), undo.DistinctStates, dfs.DistinctStates)
			}
			if (undo.AssertFailures > 0) != (dfs.AssertFailures > 0) ||
				(undo.Panics > 0) != (dfs.Panics > 0) ||
				(undo.Deadlocks > 0) != (dfs.Deadlocks > 0) ||
				(undo.Races > 0) != (dfs.Races > 0) {
				t.Errorf("%s safety verdicts disagree with exhaustive DFS", eng.Name())
			}
		}
	}

	// Samplers: counting invariant, accounting identity, and exact
	// backend identity — diverging walks must classify and count the
	// same whichever way the cursor rewinds.
	for _, eng := range []Engine{
		NewRandomWalk(3),
		NewPCT(3, 2),
		NewPOS(3),
	} {
		sOpt := func(b BackendKind) Options {
			o := mkOpt(b)
			o.ScheduleLimit = 40
			return o
		}
		undo := eng.Explore(src, sOpt(BackendUndo))
		if err := undo.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		accounting(eng.Name(), undo)
		if got, want := countersOf(undo), countersOf(eng.Explore(src, sOpt(BackendReplay))); got != want {
			t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v", eng.Name(), got, want)
		}
		if (undo.Panics > 0 && dfs.Panics == 0) ||
			(undo.Divergences > 0 && dfs.Divergences == 0 && !dfs.HitLimit && dfs.Truncated == 0) {
			t.Errorf("%s found a hostile outcome exhaustive DFS says cannot occur", eng.Name())
		}
	}
}

// FuzzHostileEquivalence is the native fuzz target behind the
// committed corpus in testdata/fuzz/FuzzHostileEquivalence: the
// fault-containment twin of FuzzEngineEquivalence, over programs
// whose thread bodies may panic or diverge.
func FuzzHostileEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0x10, 4, 0x00})       // racy conditional panic
	f.Add([]byte{0, 0, 0, 5, 0x02})                // unconditional divergence
	f.Add([]byte{0, 0, 0, 1, 0x10, 5, 0x01})       // racy conditional divergence
	f.Add([]byte{1, 2, 0, 2, 3, 4, 7, 5, 2, 1, 9}) // three threads, mixed hostility
	for _, data := range progdsl.FuzzCorpus(6, 1234) {
		f.Add(data)
	}
	f.Fuzz(checkHostileEquivalence)
}

// TestHostileEquivalenceCorpus replays a bounded deterministic slice
// of the hostile input space in the normal -short suite.
func TestHostileEquivalenceCorpus(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	for i, data := range progdsl.FuzzCorpus(n, 99) {
		i, data := i, data
		t.Run(fmt.Sprintf("corpus-%03d", i), func(t *testing.T) {
			checkHostileEquivalence(t, data)
		})
	}
}
