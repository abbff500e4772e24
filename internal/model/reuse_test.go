package model_test

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// regsProgram builds a three-thread progdsl program whose threads use
// 1, 6 and 3 registers, so the undo log's recycled coroutines move
// between threads of different register counts. Every register feeds
// a written value, so a mis-copied register shows up in the store.
func regsProgram() *progdsl.Program {
	b := progdsl.New("undo-regs").AutoStart()
	x, y := b.Var("x"), b.Var("y")
	m := b.Mutex("m")
	t0 := b.Thread()
	for i := 0; i < 3; i++ {
		t0.Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	}
	t1 := b.Thread()
	t1.Const(5, 3).Lock(m).Read(1, x).Add(2, 1, 5).Write(x, 2).Unlock(m).
		Read(3, y).Mul(4, 3, 5).AddConst(4, 4, 1).Write(y, 4).Read(0, x).Write(y, 0)
	t2 := b.Thread()
	t2.Read(2, y).AddConst(2, 2, 7).Write(y, 2).Lock(m).Read(1, x).Add(0, 1, 2).Write(x, 0).Unlock(m)
	return b.Build()
}

// replayed returns a fresh machine that executed choices from the
// initial state.
func replayed(src model.Source, choices []event.ThreadID) *model.Machine {
	m := model.NewMachine(src)
	for _, t := range choices {
		m.Step(t)
	}
	return m
}

// finalSig runs m to completion with the first enabled thread at
// every step and returns the terminal state's signature, leaving m
// there.
func finalSig(m *model.Machine) model.StateSig {
	for en := m.EnabledThreads(nil); len(en) > 0; en = m.EnabledThreads(nil) {
		m.Step(en[0])
	}
	return m.StateSig()
}

// opaqueSnap wraps a coroutine, forwarding Snapshottable but not
// SnapshotReuser — the shape of a tracing wrapper.
type opaqueSnap struct{ model.Coroutine }

func (c opaqueSnap) Snapshot() model.Coroutine {
	return opaqueSnap{c.Coroutine.(model.Snapshottable).Snapshot()}
}

type opaqueSnapSource struct{ *progdsl.Program }

func (s opaqueSnapSource) Start(t event.ThreadID) model.Coroutine {
	return opaqueSnap{s.Program.Start(t)}
}

// TestUndoRecyclesSnapshots drives repeated step → UndoTo → step
// cycles through an undo-logged machine, checking after every cycle
// that the state — and the terminal state of the same continuation —
// equals a fresh replay of the same choices. With progdsl coroutines
// the log recycles checkpoints and the spare list never outgrows the
// undo depth reached; wrapped coroutines without SnapshotInto never
// land on it.
func TestUndoRecyclesSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   model.Source
		reuse bool
	}{
		{"progdsl", regsProgram(), true},
		{"wrapped", opaqueSnapSource{regsProgram()}, false},
	} {
		r := rand.New(rand.NewSource(1))
		m := model.NewMachine(tc.src)
		if !m.EnableUndo() {
			t.Fatalf("%s: coroutines are snapshottable; undo must enable", tc.name)
		}
		var choices []event.ThreadID
		maxDepth := 0
		for cycle := 0; cycle < 300; cycle++ {
			for k := r.Intn(8); k > 0; k-- {
				en := m.EnabledThreads(nil)
				if len(en) == 0 {
					break
				}
				tid := en[r.Intn(len(en))]
				m.Step(tid)
				choices = append(choices, tid)
			}
			maxDepth = max(maxDepth, len(choices))
			d := r.Intn(len(choices) + 1)
			m.UndoTo(d)
			choices = choices[:d]

			ref := replayed(tc.src, choices)
			if m.StateSig() != ref.StateSig() {
				t.Fatalf("%s cycle %d: state after undo to %d differs from replay of %v", tc.name, cycle, d, choices)
			}
			if finalSig(m) != finalSig(ref) {
				t.Fatalf("%s cycle %d: continuation from depth %d diverged from replay of %v", tc.name, cycle, d, choices)
			}
			maxDepth = max(maxDepth, m.UndoMark())
			m.UndoTo(d)
			n := model.SpareLen(m)
			if !tc.reuse && n != 0 {
				t.Fatalf("%s cycle %d: %d wrapper coroutines on the spare list, want 0", tc.name, cycle, n)
			}
			if n > maxDepth {
				t.Fatalf("%s cycle %d: %d spare coroutines, undo depth never exceeded %d", tc.name, cycle, n, maxDepth)
			}
		}
	}
}

// TestUndoStepAllocatesNothing pins the recycled forward step: once
// the spare list is warm, a step/undo cycle in the middle of an
// execution allocates nothing.
func TestUndoStepAllocatesNothing(t *testing.T) {
	m := model.NewMachine(regsProgram())
	if !m.EnableUndo() {
		t.Fatal("undo must enable")
	}
	m.Step(0)
	m.Step(1)
	mark := m.UndoMark()
	cycle := func() {
		m.Step(0)
		m.Step(1)
		m.Step(2)
		m.Step(1)
		m.UndoTo(mark)
	}
	cycle() // warm the spare list and the undo log's capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("step/undo cycle allocates %.1f times, want 0", allocs)
	}
}
