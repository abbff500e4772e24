package model_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// resetProgram exercises every machine effect Reset must undo: an
// initial store (InitStorer), a mutex, a buffered and an unbuffered
// channel, a select, spawn/join, schedule-dependent assertion
// failures, and a send-on-closed panic that kills its thread.
func resetProgram() *progdsl.Program {
	b := progdsl.New("reset-mix")
	x := b.VarInit("x", 3)
	m := b.Mutex("m")
	buf := b.Chan("buf", 2)
	unb := b.Chan("unb", 0)
	t0, t1, t2 := b.Thread(), b.Thread(), b.Thread()
	t0.Spawn(t1).Spawn(t2).
		Lock(m).Read(0, x).AddConst(0, 0, 1).Write(x, 0).Unlock(m).
		SendConst(buf, 1).SendConst(buf, 2).Recv(1, 2, unb).
		Join(t1).Join(t2).Read(0, x).AssertEq(0, 5)
	t1.Lock(m).Read(0, x).AddConst(0, 0, 1).Write(x, 0).Unlock(m).
		Select(0, 1, 2, false, buf).SendConst(unb, 7)
	t2.Recv(0, 1, buf).AssertEq(0, 1).Close(buf)
	return b.Build()
}

// sameMachine compares everything a machine exposes: state identity,
// failures, enabledness, per-thread status and step counts.
func sameMachine(t *testing.T, where string, got, want *model.Machine) {
	t.Helper()
	if got.StateSig() != want.StateSig() || got.StateKey() != want.StateKey() {
		t.Fatalf("%s: state %s, want %s", where, got.StateKey(), want.StateKey())
	}
	if len(got.Failures()) != len(want.Failures()) ||
		len(want.Failures()) > 0 && !reflect.DeepEqual(got.Failures(), want.Failures()) {
		t.Fatalf("%s: failures %v, want %v", where, got.Failures(), want.Failures())
	}
	if g, w := got.EnabledThreads(nil), want.EnabledThreads(nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: enabled %v, want %v", where, g, w)
	}
	if got.Executed() != want.Executed() || got.HasDiverged() != want.HasDiverged() {
		t.Fatalf("%s: executed %d diverged %v, want %d %v", where,
			got.Executed(), got.HasDiverged(), want.Executed(), want.HasDiverged())
	}
	for th := 0; th < want.NumThreads(); th++ {
		id := event.ThreadID(th)
		gp, gok := got.Pending(id)
		wp, wok := want.Pending(id)
		if got.Status(id) != want.Status(id) || got.Steps(id) != want.Steps(id) || gp != wp || gok != wok {
			t.Fatalf("%s: t%d status %v steps %d pending %v, want %v %d %v", where, th,
				got.Status(id), got.Steps(id), gp, want.Status(id), want.Steps(id), wp)
		}
	}
}

// TestMachineResetMatchesFresh: a machine reset after walks of every
// length (some cut off mid-execution) equals a fresh machine, and
// stepping both through the next walk keeps them equal at every step —
// with and without an undo log. The failure log an earlier walk
// returned is never overwritten.
func TestMachineResetMatchesFresh(t *testing.T) {
	src := resetProgram()
	rng := rand.New(rand.NewSource(3))
	for _, undo := range []bool{false, true} {
		m := model.NewMachine(src)
		if undo && !m.EnableUndo() {
			t.Fatal("progdsl machine refused undo")
		}
		var kept, keptCopy []model.Failure
		for walk := 0; walk < 300; walk++ {
			if walk > 0 {
				m.Reset()
			}
			fresh := model.NewMachine(src)
			sameMachine(t, "after Reset", m, fresh)
			var choices []event.ThreadID
			stop := rng.Intn(40)
			for len(choices) < stop {
				en := m.EnabledThreads(nil)
				if len(en) == 0 {
					break
				}
				th := en[rng.Intn(len(en))]
				choices = append(choices, th)
				m.Step(th)
				fresh.Step(th)
				sameMachine(t, "walk", m, fresh)
			}
			if undo && len(choices) > 0 {
				d := rng.Intn(len(choices) + 1)
				m.UndoTo(d)
				sameMachine(t, "UndoTo after Reset", m, replayed(src, choices[:d]))
			}
			if !reflect.DeepEqual(kept, keptCopy) {
				t.Fatalf("walk %d: an earlier walk's failures changed: %v, want %v", walk, kept, keptCopy)
			}
			if fs := m.Failures(); len(fs) > 0 {
				kept, keptCopy = fs, append([]model.Failure(nil), fs...)
			}
		}
		if kept == nil {
			t.Fatal("no walk recorded a failure; the aliasing check never ran")
		}
	}
}
