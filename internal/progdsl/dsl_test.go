package progdsl

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/model"
)

// runToEnd drives a single-threaded program to completion with a
// trivial scheduler and returns the final store.
func runToEnd(t *testing.T, p *Program) []int64 {
	t.Helper()
	m := model.NewMachine(p)
	for steps := 0; ; steps++ {
		if steps > 10000 {
			t.Fatal("program did not terminate")
		}
		en := m.EnabledThreads(nil)
		if len(en) == 0 {
			break
		}
		m.Step(en[0])
	}
	if m.Deadlocked() {
		t.Fatal("unexpected deadlock")
	}
	store := make([]int64, p.NumVars())
	for i := range store {
		store[i] = m.Load(int32(i))
	}
	if len(m.Failures()) > 0 {
		t.Fatalf("unexpected failures: %v", m.Failures())
	}
	return store
}

func TestArithmetic(t *testing.T) {
	b := New("arith")
	out := b.VarArray("out", 6)
	th := b.Thread()
	th.Const(0, 7)
	th.Const(1, 3)
	th.Add(2, 0, 1)
	th.Write(out.At(0), 2) // 10
	th.Sub(2, 0, 1)
	th.Write(out.At(1), 2) // 4
	th.Mul(2, 0, 1)
	th.Write(out.At(2), 2) // 21
	th.AddConst(2, 0, -2)
	th.Write(out.At(3), 2) // 5
	th.ModConst(2, 0, 4)
	th.Write(out.At(4), 2) // 3
	th.Const(3, -7)
	th.ModConst(2, 3, 4)
	th.Write(out.At(5), 2) // 1 (mod keeps results non-negative)
	store := runToEnd(t, b.Build())
	want := []int64{10, 4, 21, 5, 3, 1}
	for i, w := range want {
		if store[i] != w {
			t.Errorf("out[%d] = %d, want %d", i, store[i], w)
		}
	}
}

func TestMovAndConst(t *testing.T) {
	b := New("mov")
	x := b.Var("x")
	th := b.Thread()
	th.Const(0, 42)
	th.Mov(1, 0)
	th.Write(x, 1)
	store := runToEnd(t, b.Build())
	if store[0] != 42 {
		t.Errorf("x = %d, want 42", store[0])
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	b := New("rw")
	x := b.VarInit("x", 5)
	y := b.Var("y")
	th := b.Thread()
	th.Read(0, x)
	th.AddConst(0, 0, 1)
	th.Write(y, 0)
	th.WriteConst(x, 100)
	store := runToEnd(t, b.Build())
	if store[0] != 100 || store[1] != 6 {
		t.Errorf("store = %v, want [100 6]", store)
	}
}

func TestIfBothArms(t *testing.T) {
	build := func(cond int64) *Program {
		b := New("if")
		out := b.Var("out")
		th := b.Thread()
		th.Const(0, cond)
		th.If(Eq(0, 1), func() {
			th.WriteConst(out, 10)
		}, func() {
			th.WriteConst(out, 20)
		})
		return b.Build()
	}
	if got := runToEnd(t, build(1))[0]; got != 10 {
		t.Errorf("then-arm: out = %d, want 10", got)
	}
	if got := runToEnd(t, build(0))[0]; got != 20 {
		t.Errorf("else-arm: out = %d, want 20", got)
	}
}

func TestIfWithoutElse(t *testing.T) {
	b := New("ifnoelse")
	out := b.VarInit("out", 1)
	th := b.Thread()
	th.Const(0, 5)
	th.If(Lt(0, 3), func() { th.WriteConst(out, 99) }, nil)
	if got := runToEnd(t, b.Build())[0]; got != 1 {
		t.Errorf("out = %d, want untouched 1", got)
	}
}

func TestConditionOperators(t *testing.T) {
	cases := []struct {
		cond Cond
		reg  int64
		hit  bool
	}{
		{Eq(0, 5), 5, true},
		{Eq(0, 5), 4, false},
		{Ne(0, 5), 4, true},
		{Ne(0, 5), 5, false},
		{Lt(0, 5), 4, true},
		{Lt(0, 5), 5, false},
		{Ge(0, 5), 5, true},
		{Ge(0, 5), 4, false},
	}
	for i, c := range cases {
		b := New("cond")
		out := b.Var("out")
		th := b.Thread()
		th.Const(0, c.reg)
		th.If(c.cond, func() { th.WriteConst(out, 1) }, nil)
		got := runToEnd(t, b.Build())[0] == 1
		if got != c.hit {
			t.Errorf("case %d: condition fired=%v, want %v", i, got, c.hit)
		}
	}
}

func TestWhileCountdown(t *testing.T) {
	b := New("while")
	out := b.Var("out")
	th := b.Thread()
	th.Const(0, 5) // loop counter
	th.Const(1, 0) // accumulator
	th.While(Ge(0, 1), func() {
		th.AddConst(1, 1, 2)
		th.AddConst(0, 0, -1)
	})
	th.Write(out, 1)
	if got := runToEnd(t, b.Build())[0]; got != 10 {
		t.Errorf("out = %d, want 10", got)
	}
}

func TestWhileZeroIterations(t *testing.T) {
	b := New("while0")
	out := b.VarInit("out", 7)
	th := b.Thread()
	th.Const(0, 0)
	th.While(Ne(0, 0), func() { th.WriteConst(out, 1) })
	if got := runToEnd(t, b.Build())[0]; got != 7 {
		t.Errorf("out = %d, want 7 (zero iterations)", got)
	}
}

func TestNestedControlFlow(t *testing.T) {
	b := New("nested")
	out := b.Var("out")
	th := b.Thread()
	th.Const(0, 3) // outer counter
	th.Const(2, 0) // result
	th.While(Ge(0, 1), func() {
		th.If(Eq(0, 2), func() {
			th.AddConst(2, 2, 100)
		}, func() {
			th.AddConst(2, 2, 1)
		})
		th.AddConst(0, 0, -1)
	})
	th.Write(out, 2)
	// counter 3,2,1 → +1, +100, +1 = 102
	if got := runToEnd(t, b.Build())[0]; got != 102 {
		t.Errorf("out = %d, want 102", got)
	}
}

func TestRepeatUnrolls(t *testing.T) {
	b := New("repeat")
	out := b.VarArray("out", 3)
	th := b.Thread()
	th.Repeat(3, func(i int) {
		th.WriteConst(out.At(i), int64(i*10))
	})
	store := runToEnd(t, b.Build())
	for i := 0; i < 3; i++ {
		if store[i] != int64(i*10) {
			t.Errorf("out[%d] = %d, want %d", i, store[i], i*10)
		}
	}
}

func TestDynamicIndexing(t *testing.T) {
	b := New("dyn")
	arr := b.VarArray("arr", 4)
	got := b.Var("got")
	th := b.Thread()
	th.Const(0, 2)  // index
	th.Const(1, 55) // value
	th.WriteAt(arr, 0, 1)
	th.ReadAt(2, arr, 0)
	th.Write(got, 2)
	// Index 6 wraps modulo 4 to slot 2 as well.
	th.Const(0, 6)
	th.ReadAt(3, arr, 0)
	th.AssertEq(3, 55)
	store := runToEnd(t, b.Build())
	if store[2] != 55 || store[4] != 55 {
		t.Errorf("store = %v, want arr[2]=55, got=55", store)
	}
}

func TestDynamicLocks(t *testing.T) {
	b := New("dynlock").AutoStart()
	locks := b.MutexArray("lock", 2)
	x := b.Var("x")
	for i := 0; i < 2; i++ {
		th := b.Thread()
		th.Const(0, int64(i))
		th.LockAt(locks, 0)
		th.Read(1, x)
		th.AddConst(1, 1, 1)
		th.Write(x, 1)
		th.UnlockAt(locks, 0)
	}
	if got := runToEnd(t, b.Build())[0]; got != 2 {
		t.Errorf("x = %d, want 2", got)
	}
}

func TestAssertVariants(t *testing.T) {
	b := New("asserts")
	th := b.Thread()
	th.Const(0, 5)
	th.AssertEq(0, 5)
	th.AssertNe(0, 4)
	th.AssertLt(0, 6)
	th.AssertGe(0, 5)
	runToEnd(t, b.Build()) // fails the test on any assert failure
}

func TestAssertFailureSurfaces(t *testing.T) {
	b := New("assertfail")
	th := b.Thread()
	th.Const(0, 5)
	th.AssertEq(0, 6)
	m := model.NewMachine(b.Build())
	for len(m.EnabledThreads(nil)) > 0 {
		m.Step(m.EnabledThreads(nil)[0])
	}
	fs := m.Failures()
	if len(fs) != 1 || fs[0].Kind != model.FailAssert {
		t.Fatalf("failures = %v, want one assertion failure", fs)
	}
}

func TestSpawnJoinInDSL(t *testing.T) {
	b := New("spawnjoin")
	x := b.Var("x")
	main := b.Thread()
	child := b.Thread()
	child.WriteConst(x, 33)
	main.Spawn(child).Join(child).Read(0, x).AssertEq(0, 33)
	runToEnd(t, b.Build())
}

func TestValidationCatchesBadPrograms(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build must panic", name)
				}
			}()
			f()
		})
	}
	expectPanic("no-threads", func() { New("empty").Build() })
	expectPanic("self-join", func() {
		b := New("selfjoin")
		th := b.Thread()
		th.emit(instr{kind: iJoin, a: 0})
		b.Build()
	})
	expectPanic("undeclared-var", func() {
		b := New("badvar")
		th := b.Thread()
		th.emit(instr{kind: iRead, a: 0, b: 7})
		b.Build()
	})
	expectPanic("undeclared-mutex", func() {
		b := New("badmu")
		th := b.Thread()
		th.emit(instr{kind: iLock, a: 3})
		b.Build()
	})
	expectPanic("bad-jump", func() {
		b := New("badjmp")
		th := b.Thread()
		th.emit(instr{kind: iJmp, a: 99})
		b.Build()
	})
	expectPanic("mod-by-zero", func() {
		b := New("badmod")
		th := b.Thread()
		th.Const(0, 1)
		th.emit(instr{kind: iMod, a: 0, b: 0, imm: 0})
		b.Build()
	})
	expectPanic("bad-vararray", func() {
		b := New("badarr")
		b.VarArray("a", 0)
		b.Thread()
		b.Build()
	})
}

func TestArrayAtBoundsPanics(t *testing.T) {
	b := New("at")
	arr := b.VarArray("a", 2)
	defer func() {
		if recover() == nil {
			t.Error("At out of range must panic")
		}
	}()
	arr.At(2)
}

func TestCoroutineSnapshotDiverges(t *testing.T) {
	b := New("snap")
	x := b.Var("x")
	th := b.Thread()
	th.Read(0, x)
	th.AddConst(0, 0, 1)
	th.Write(x, 0)
	p := b.Build()
	c := p.Start(0).(*coroutine)
	op, ok := c.Peek()
	if !ok || op.Kind != event.KindRead {
		t.Fatalf("first op = %v, %v", op, ok)
	}
	snap := c.Snapshot().(*coroutine)
	c.Resume(10)
	op, _ = c.Peek()
	if op.Val != 11 {
		t.Fatalf("original writes %d, want 11", op.Val)
	}
	// The snapshot still awaits its read and can take another value.
	op, ok = snap.Peek()
	if !ok || op.Kind != event.KindRead {
		t.Fatalf("snapshot op = %v, %v", op, ok)
	}
	snap.Resume(100)
	op, _ = snap.Peek()
	if op.Val != 101 {
		t.Fatalf("snapshot writes %d, want 101", op.Val)
	}
}

// TestCoroutineSnapshotInto: copying into a spare progdsl coroutine
// reuses it and yields an independent copy, and a foreign dst falls
// back to a fresh snapshot.
func TestCoroutineSnapshotInto(t *testing.T) {
	b := New("snap-into")
	x := b.Var("x")
	b.Thread().Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	p := b.Build()
	c := p.Start(0).(*coroutine)
	c.Peek()
	spare := p.Start(0).(*coroutine)
	cp := c.SnapshotInto(spare)
	if cp != model.Coroutine(spare) {
		t.Fatal("SnapshotInto did not reuse the progdsl dst")
	}
	c.Resume(10)
	spare.Resume(100)
	if op, _ := c.Peek(); op.Val != 11 {
		t.Errorf("original writes %d, want 11", op.Val)
	}
	if op, _ := spare.Peek(); op.Val != 101 {
		t.Errorf("copy writes %d, want 101 (registers shared with the original?)", op.Val)
	}
	var foreign struct{ model.Coroutine }
	if got, ok := c.SnapshotInto(&foreign).(*coroutine); !ok || got == c {
		t.Errorf("foreign dst: got %T, want a fresh progdsl snapshot", got)
	}
}

func TestProgramMetadata(t *testing.T) {
	b := New("meta").AutoStart()
	x := b.Var("counter")
	m := b.Mutex("guard")
	th1 := b.Thread()
	th1.Lock(m).WriteConst(x, 1).Unlock(m)
	b.Thread() // empty second thread
	p := b.Build()
	if p.Name() != "meta" || p.NumThreads() != 2 || p.NumVars() != 1 || p.NumMutexes() != 1 {
		t.Errorf("metadata wrong: %s %d %d %d", p.Name(), p.NumThreads(), p.NumVars(), p.NumMutexes())
	}
	if p.VarName(0) != "counter" || p.MutexName(0) != "guard" {
		t.Error("names not preserved")
	}
	if got := len(p.InitiallyRunning()); got != 2 {
		t.Errorf("autostart must start all threads, got %d", got)
	}
	dis := p.Disassemble(0)
	for _, want := range []string{"lock m0", "write v0 = 1", "unlock m0"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
	if th1.ID() != 0 {
		t.Error("first thread must be thread 0")
	}
}

func TestEmptyThreadTerminatesImmediately(t *testing.T) {
	b := New("emptythread")
	b.Thread()
	p := b.Build()
	m := model.NewMachine(p)
	if !m.Terminated() {
		t.Error("a machine whose only thread is empty must be terminal")
	}
}

func TestRegisterConditions(t *testing.T) {
	cases := []struct {
		cond func() Cond
		a, b int64
		hit  bool
	}{
		{func() Cond { return EqReg(0, 1) }, 5, 5, true},
		{func() Cond { return EqReg(0, 1) }, 5, 6, false},
		{func() Cond { return NeReg(0, 1) }, 5, 6, true},
		{func() Cond { return NeReg(0, 1) }, 5, 5, false},
		{func() Cond { return LtReg(0, 1) }, 4, 5, true},
		{func() Cond { return LtReg(0, 1) }, 5, 5, false},
		{func() Cond { return GeReg(0, 1) }, 5, 5, true},
		{func() Cond { return GeReg(0, 1) }, 4, 5, false},
	}
	for i, c := range cases {
		b := New("regcond")
		out := b.Var("out")
		th := b.Thread()
		th.Const(0, c.a)
		th.Const(1, c.b)
		th.If(c.cond(), func() { th.WriteConst(out, 1) }, nil)
		got := runToEnd(t, b.Build())[0] == 1
		if got != c.hit {
			t.Errorf("case %d: fired=%v, want %v", i, got, c.hit)
		}
	}
}

func TestWhileRegisterCondition(t *testing.T) {
	b := New("whilereg")
	out := b.Var("out")
	th := b.Thread()
	th.Const(0, 0) // i
	th.Const(1, 4) // n
	th.Const(2, 0) // acc
	th.While(LtReg(0, 1), func() {
		th.Add(2, 2, 0)
		th.AddConst(0, 0, 1)
	})
	th.Write(out, 2)
	// 0+1+2+3 = 6
	if got := runToEnd(t, b.Build())[0]; got != 6 {
		t.Errorf("out = %d, want 6", got)
	}
}

func TestRegisterAsserts(t *testing.T) {
	b := New("regassert")
	th := b.Thread()
	th.Const(0, 3)
	th.Const(1, 3)
	th.Const(2, 9)
	th.AssertEqReg(0, 1)
	th.AssertLtReg(0, 2)
	runToEnd(t, b.Build())

	bad := New("regassert-bad")
	tb := bad.Thread()
	tb.Const(0, 3)
	tb.Const(1, 4)
	tb.AssertEqReg(0, 1)
	m := model.NewMachine(bad.Build())
	for len(m.EnabledThreads(nil)) > 0 {
		m.Step(m.EnabledThreads(nil)[0])
	}
	if len(m.Failures()) != 1 {
		t.Fatalf("failures = %v", m.Failures())
	}
}
