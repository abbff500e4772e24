package explore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// terminalInfo captures what the theorems talk about: one terminal
// execution's partial orders and final state.
type terminalInfo struct {
	hbFP     hb.Fingerprint
	lazyFP   hb.Fingerprint
	stateKey string
	choices  []event.ThreadID
}

// forEachTerminal enumerates maximal schedules of src depth-first and
// invokes fn on each, stopping after cap terminals. It reports whether
// the whole schedule space was exhausted; the theorems are pairwise
// properties, so validating a prefix sample is still meaningful when
// the space is too large.
func forEachTerminal(t *testing.T, src model.Source, cap int, fn func(terminalInfo)) (exhausted bool) {
	t.Helper()
	c := newCursor(src, Options{MaxSteps: 2000})
	defer c.close()
	count := 0
	report := func() bool {
		count++
		fn(terminalInfo{
			hbFP:     c.tr.HBFingerprint(),
			lazyFP:   c.tr.LazyFingerprint(),
			stateKey: c.m.StateKey(),
			choices:  append([]event.ThreadID(nil), c.choices...),
		})
		return count < cap
	}
	// One node per depth: the state's enabled threads and how many of
	// them have been tried.
	type enumNode struct {
		choices []event.ThreadID
		next    int
	}
	var stack []enumNode
	descend := func() bool {
		for {
			en := c.enabled()
			if len(en) == 0 {
				return report()
			}
			if c.truncated() {
				t.Fatalf("%s: truncated during exhaustive enumeration", src.Name())
			}
			stack = append(stack, enumNode{choices: append([]event.ThreadID(nil), en...), next: 1})
			c.step(en[0])
		}
	}
	if !descend() {
		return false
	}
	for len(stack) > 0 {
		d := len(stack) - 1
		n := &stack[d]
		if n.next >= len(n.choices) {
			stack = stack[:d]
			continue
		}
		tid := n.choices[n.next]
		n.next++
		c.resetTo(d)
		c.step(tid)
		if !descend() {
			return false
		}
	}
	return true
}

// checkTheorems validates, over the full schedule space of src:
//
//   - Theorem 2.1: equal HBR ⇒ equal final state;
//   - Theorem 2.2: equal lazy HBR ⇒ equal final state;
//   - refinement: equal HBR ⇒ equal lazy HBR;
//   - the counting chain #states ≤ #lazyHBRs ≤ #HBRs ≤ #schedules.
func checkTheorems(t *testing.T, src model.Source, cap int) (schedules, hbrs, lazies, states int) {
	t.Helper()
	hbrState := map[hb.Fingerprint]string{}
	lazyState := map[hb.Fingerprint]string{}
	hbrLazy := map[hb.Fingerprint]hb.Fingerprint{}
	stateSet := map[string]struct{}{}
	exhaustedNote := forEachTerminal(t, src, cap, func(info terminalInfo) {
		schedules++
		stateSet[info.stateKey] = struct{}{}
		if prev, ok := hbrState[info.hbFP]; ok {
			if prev != info.stateKey {
				t.Fatalf("%s: THEOREM 2.1 VIOLATED: same HBR, different states\n  %s\n  %s\n  schedule: %v",
					src.Name(), prev, info.stateKey, info.choices)
			}
		} else {
			hbrState[info.hbFP] = info.stateKey
		}
		if prev, ok := lazyState[info.lazyFP]; ok {
			if prev != info.stateKey {
				t.Fatalf("%s: THEOREM 2.2 VIOLATED: same lazy HBR, different states\n  %s\n  %s\n  schedule: %v",
					src.Name(), prev, info.stateKey, info.choices)
			}
		} else {
			lazyState[info.lazyFP] = info.stateKey
		}
		if prev, ok := hbrLazy[info.hbFP]; ok {
			if prev != info.lazyFP {
				t.Fatalf("%s: same HBR mapped to two different lazy HBRs", src.Name())
			}
		} else {
			hbrLazy[info.hbFP] = info.lazyFP
		}
	})
	_ = exhaustedNote
	hbrs, lazies, states = len(hbrState), len(lazyState), len(stateSet)
	if !(states <= lazies && lazies <= hbrs && hbrs <= schedules) {
		t.Fatalf("%s: counting chain violated: states=%d lazy=%d hbr=%d schedules=%d",
			src.Name(), states, lazies, hbrs, schedules)
	}
	return schedules, hbrs, lazies, states
}

// TestTheoremsOnCuratedPrograms validates both theorems on hand-picked
// programs covering each edge type: mutex-only interaction, variable
// conflicts, spawn/join, deadlocking locks and mixed workloads.
func TestTheoremsOnCuratedPrograms(t *testing.T) {
	programs := []func() *progdsl.Program{
		curatedFigure1,
		curatedDisjointLocks,
		curatedSharedCounter,
		curatedSpawnJoinTree,
		curatedDeadlockable,
		curatedMixedMutexVar,
	}
	for _, build := range programs {
		p := build()
		t.Run(p.Name(), func(t *testing.T) {
			s, h, l, st := checkTheorems(t, p, 500000)
			t.Logf("%s: schedules=%d hbrs=%d lazy=%d states=%d", p.Name(), s, h, l, st)
		})
	}
}

func curatedFigure1() *progdsl.Program {
	b := progdsl.New("curated-figure1").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	z := b.Var("z")
	m := b.Mutex("m")
	t1 := b.Thread()
	t1.Lock(m).Read(0, x).Unlock(m).WriteConst(y, 1)
	t2 := b.Thread()
	t2.WriteConst(z, 1).Lock(m).Read(0, x).Unlock(m)
	return b.Build()
}

func curatedDisjointLocks() *progdsl.Program {
	b := progdsl.New("curated-disjoint-locks").AutoStart()
	g := b.Mutex("g")
	a := b.Var("a")
	c := b.Var("c")
	t1 := b.Thread()
	t1.Lock(g).Read(0, a).AddConst(0, 0, 1).Write(a, 0).Unlock(g)
	t2 := b.Thread()
	t2.Lock(g).Read(0, c).AddConst(0, 0, 2).Write(c, 0).Unlock(g)
	return b.Build()
}

func curatedSharedCounter() *progdsl.Program {
	b := progdsl.New("curated-shared-counter").AutoStart()
	x := b.Var("x")
	for i := 0; i < 3; i++ {
		th := b.Thread()
		th.Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	}
	return b.Build()
}

func curatedSpawnJoinTree() *progdsl.Program {
	b := progdsl.New("curated-spawnjoin")
	x := b.Var("x")
	y := b.Var("y")
	main := b.Thread()
	c1 := b.Thread()
	c1.WriteConst(x, 1)
	c2 := b.Thread()
	c2.WriteConst(y, 2)
	main.Spawn(c1).Spawn(c2).Join(c1).Join(c2).Read(0, x).Read(1, y)
	return b.Build()
}

func curatedDeadlockable() *progdsl.Program {
	b := progdsl.New("curated-deadlockable").AutoStart()
	m0 := b.Mutex("m0")
	m1 := b.Mutex("m1")
	b.Thread().Lock(m0).Lock(m1).Unlock(m1).Unlock(m0)
	b.Thread().Lock(m1).Lock(m0).Unlock(m0).Unlock(m1)
	return b.Build()
}

func curatedMixedMutexVar() *progdsl.Program {
	b := progdsl.New("curated-mixed").AutoStart()
	g := b.Mutex("g")
	priv0 := b.Var("p0")
	priv1 := b.Var("p1")
	shared := b.Var("s")
	t1 := b.Thread()
	t1.Lock(g).WriteConst(priv0, 1).Unlock(g).Read(0, shared)
	t2 := b.Thread()
	t2.Lock(g).WriteConst(priv1, 1).Unlock(g).WriteConst(shared, 9)
	return b.Build()
}

// curatedChanRace: two senders race for a 1-slot buffer while the
// consumer drains both and mixes the first value into a shared store —
// channel and variable dependence in one program.
func curatedChanRace() *progdsl.Program {
	b := progdsl.New("curated-chan-race").AutoStart()
	c := b.Chan("c", 1)
	out := b.Var("out")
	b.Thread().SendConst(c, 1)
	b.Thread().SendConst(c, 2)
	t := b.Thread()
	t.Recv(0, 1, c).Write(out, 0).Recv(2, 1, c)
	return b.Build()
}

// curatedChanCloseRace: a close racing a send on a buffered channel
// (panic in close-first schedules) with a receiver draining whichever
// outcome — every channel verdict class in four events.
func curatedChanCloseRace() *progdsl.Program {
	b := progdsl.New("curated-chan-close-race").AutoStart()
	c := b.Chan("c", 1)
	b.Thread().SendConst(c, 3)
	b.Thread().Close(c)
	b.Thread().Recv(0, 1, c)
	return b.Build()
}

// curatedChanSelect: a select multiplexing two producers on distinct
// channels, then non-blocking drains of both — committed selects must
// join every case channel's total order for the engines to agree.
func curatedChanSelect() *progdsl.Program {
	b := progdsl.New("curated-chan-select").AutoStart()
	ca := b.Chan("ca", 1)
	cb := b.Chan("cb", 1)
	b.Thread().SendConst(ca, 1)
	b.Thread().SendConst(cb, 2)
	t := b.Thread()
	t.Select(0, 1, 2, false, ca, cb)
	t.TryRecv(0, 1, ca)
	t.TryRecv(0, 1, cb)
	return b.Build()
}

// genRandomProgram is the property-based generator: small programs
// with well-nested critical sections, mixed private/shared accesses
// and bounded length, guaranteed to terminate.
func genRandomProgram(seed int64) *progdsl.Program {
	rng := rand.New(rand.NewSource(seed))
	nthreads := 2 + rng.Intn(2)
	nvars := 1 + rng.Intn(3)
	nmutex := 1 + rng.Intn(2)
	b := progdsl.New(fmt.Sprintf("random-%d", seed)).AutoStart()
	vars := b.VarArray("v", nvars)
	mus := b.MutexArray("m", nmutex)
	for tid := 0; tid < nthreads; tid++ {
		th := b.Thread()
		ops := 2 + rng.Intn(4)
		for k := 0; k < ops; k++ {
			v := vars.At(rng.Intn(nvars))
			switch rng.Intn(4) {
			case 0:
				th.Read(0, v)
			case 1:
				th.WriteConst(v, int64(rng.Intn(4)))
			case 2:
				th.Read(0, v)
				th.AddConst(0, 0, 1)
				th.Write(v, 0)
			default:
				m := mus.At(rng.Intn(nmutex))
				th.Lock(m)
				if rng.Intn(2) == 0 {
					th.Read(1, v)
				} else {
					th.WriteConst(v, int64(rng.Intn(4)))
				}
				th.Unlock(m)
			}
		}
	}
	return b.Build()
}

// TestTheoremsOnRandomPrograms is the property-based validation: 60
// seeded random programs, exhaustively enumerated, must satisfy
// Theorems 2.1 and 2.2 and the counting chain. The programs are
// independent, so they run in parallel.
func TestTheoremsOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is slow in -short mode")
	}
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			checkTheorems(t, genRandomProgram(seed), 20000)
		})
	}
}

// ablationCounters projects a Result onto every schedule-determined
// counter. Events is reported separately: the replay backend re-executes
// retained prefixes, so its event total legitimately differs.
type ablationCounters struct {
	Schedules, Terminals, Pruned, Truncated, SleepBlocked, Divergences int
	DistinctHBRs, DistinctLazyHBRs, DistinctStates                     int
	Deadlocks, AssertFailures, Panics, LockErrors, Races, MaxDepth     int
	HitLimit, Interrupted                                              bool
	ViolationKind                                                      string
	FirstViolation                                                     string
}

func countersOf(r Result) ablationCounters {
	return ablationCounters{
		Schedules: r.Schedules, Terminals: r.Terminals, Pruned: r.Pruned,
		Truncated: r.Truncated, SleepBlocked: r.SleepBlocked, Divergences: r.Divergences,
		DistinctHBRs: r.DistinctHBRs, DistinctLazyHBRs: r.DistinctLazyHBRs,
		DistinctStates: r.DistinctStates,
		Deadlocks:      r.Deadlocks, AssertFailures: r.AssertFailures, Panics: r.Panics,
		LockErrors: r.LockErrors, Races: r.Races, MaxDepth: r.MaxDepth,
		HitLimit: r.HitLimit, Interrupted: r.Interrupted,
		ViolationKind:  r.ViolationKind,
		FirstViolation: fmt.Sprint(r.FirstViolation),
	}
}

// TestBackendAblationExact is the exactness contract of the
// exploration backends: for every engine and every zoo program, the
// undo-log backend (machine + tracker undo logs) and pure replay must
// report byte-identical Result counters — including the first-bug
// schedule.
func TestBackendAblationExact(t *testing.T) {
	engines := []struct {
		eng   Engine
		limit int
	}{
		{NewDFS(), 0},
		{NewDPOR(false), 0},
		{NewDPOR(true), 0},
		{NewHBRCache(), 0},
		{NewLazyHBRCache(), 0},
		{NewLazyDPOR(), 0},
		{NewPreemptionBounded(2), 0},
		{NewDelayBounded(2), 0},
		{NewRandomWalk(11), 60},
	}
	for _, src := range soundnessZoo() {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			for _, e := range engines {
				undo, repl := exploreBackends(t, e.eng, src, Options{MaxSteps: 2000, ScheduleLimit: e.limit})
				if got, want := countersOf(undo), countersOf(repl); got != want {
					t.Errorf("%s: undo and replay backends disagree:\n undo=%+v\n repl=%+v",
						e.eng.Name(), got, want)
				}
			}
		})
	}
}

// exploreBackends runs eng over src twice under opt: as given, where
// the cursor picks the undo log for a backtracking engine and replay
// for a sampler, and wrapped in model.Opaque, which forces replay. It
// checks each side's resolved backend through Counters.Backend, so a
// wrapper that leaked Snapshot could not quietly compare undo with
// undo. A run that executes no event is exempt: its threads all ended
// or diverged before their first operation, so EnableUndo had no live
// coroutine to refuse, and nothing is ever rewound.
func exploreBackends(t testing.TB, eng Engine, src model.Source, opt Options) (plain, opaque Result) {
	t.Helper()
	run := func(src model.Source, want string) Result {
		t.Helper()
		o := opt
		o.Counters = NewCounters()
		res := eng.Explore(src, o)
		if got := o.Counters.Backend(); got != want && res.Events > 0 {
			t.Errorf("%s on %s: resolved backend %q, want %q", eng.Name(), src.Name(), got, want)
		}
		return res
	}
	want := "undo"
	switch eng.(type) {
	case *randomEngine, *pctEngine, *posEngine:
		want = "replay"
	}
	return run(src, want), run(model.Opaque(src), "replay")
}

// TestBackendResolution pins the backend-selection rules: the cursor
// uses the undo log exactly when the engine backtracks (the tree
// engines and DPOR) and the program's coroutines can snapshot; the
// samplers, goroutine-harness programs and programs wrapped in
// model.Opaque run on replay.
func TestBackendResolution(t *testing.T) {
	prog := curatedFigure1()
	twin := buildHarnessVariant("twin", 2, true, true)
	for _, tc := range []struct {
		eng  Engine
		src  model.Source
		want string
	}{
		{NewDFS(), prog, "undo"},
		{NewLazyHBRCache(), prog, "undo"},
		{NewPreemptionBounded(1), prog, "undo"},
		{NewDPOR(false), prog, "undo"},
		{NewDPOR(true), prog, "undo"},
		{NewLazyDPOR(), prog, "undo"},
		{NewDFS(), model.Opaque(prog), "replay"},
		{NewDPOR(false), model.Opaque(prog), "replay"},
		{NewRandomWalk(1), prog, "replay"},
		{NewPCT(1, 2), prog, "replay"},
		{NewPOS(1), prog, "replay"},
		{NewDFS(), twin, "replay"},
		{NewDPOR(false), twin, "replay"},
		{NewRandomWalk(1), twin, "replay"},
	} {
		ctr := NewCounters()
		tc.eng.Explore(tc.src, Options{ScheduleLimit: 20, MaxSteps: 2000, Counters: ctr})
		if got := ctr.Backend(); got != tc.want {
			t.Errorf("%s on %s resolved to backend %q, want %q", tc.eng.Name(), tc.src.Name(), got, tc.want)
		}
	}
}

// TestLazyNeverCoarserThanStates double-checks the paper's central
// claim quantitatively on programs designed to maximise mutex-induced
// redundancy: the lazy HBR count equals the state count exactly when
// critical sections commute.
func TestLazyNeverCoarserThanStates(t *testing.T) {
	p := curatedDisjointLocks()
	schedules, hbrs, lazies, states := checkTheorems(t, p, 100000)
	if lazies != 1 || states != 1 {
		t.Errorf("disjoint locks: lazy=%d states=%d, want 1/1", lazies, states)
	}
	if hbrs != 2 {
		t.Errorf("disjoint locks: hbrs=%d, want 2 (two lock orders)", hbrs)
	}
	if schedules < hbrs {
		t.Errorf("schedules (%d) must cover all HBRs (%d)", schedules, hbrs)
	}
	// Figure 1 has events outside the critical sections, so it
	// shows strictly more schedules than HBR classes.
	f1schedules, f1hbrs, _, _ := checkTheorems(t, curatedFigure1(), 100000)
	if f1schedules <= f1hbrs {
		t.Errorf("figure1: expected schedules (%d) > HBRs (%d)", f1schedules, f1hbrs)
	}
}
