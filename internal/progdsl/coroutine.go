package progdsl

import (
	"repro/internal/event"
	"repro/internal/model"
)

// coroutine interprets one thread's code. Local instructions run
// eagerly inside Peek until a visible operation (or termination) is
// reached; Resume consumes the visible operation. The coroutine is
// snapshotable: its whole state is the program counter and registers.
type coroutine struct {
	code    *threadCode
	regs    []int64
	pc      int32
	pending event.Op
	have    bool
	done    bool
}

var (
	_ model.Snapshottable  = (*coroutine)(nil)
	_ model.SnapshotReuser = (*coroutine)(nil)
)

// Peek implements model.Coroutine.
func (c *coroutine) Peek() (event.Op, bool) {
	if c.done {
		return event.Op{}, false
	}
	if c.have {
		return c.pending, true
	}
	for {
		if int(c.pc) >= len(c.code.instrs) {
			c.done = true
			return event.Op{}, false
		}
		in := c.code.instrs[c.pc]
		switch in.kind {
		case iRead:
			c.pending = event.Op{Kind: event.KindRead, Obj: in.b}
		case iWrite:
			c.pending = event.Op{Kind: event.KindWrite, Obj: in.a, Val: c.regs[in.b]}
		case iWriteI:
			c.pending = event.Op{Kind: event.KindWrite, Obj: in.a, Val: in.imm}
		case iLock:
			c.pending = event.Op{Kind: event.KindLock, Obj: in.a}
		case iUnlock:
			c.pending = event.Op{Kind: event.KindUnlock, Obj: in.a}
		case iSpawn:
			c.pending = event.Op{Kind: event.KindSpawn, Obj: in.a}
		case iJoin:
			c.pending = event.Op{Kind: event.KindJoin, Obj: in.a}
		case iReadD:
			c.pending = event.Op{Kind: event.KindRead, Obj: dynObj(in, c.regs)}
		case iWriteD:
			c.pending = event.Op{Kind: event.KindWrite, Obj: dynObj(in, c.regs), Val: c.regs[in.a]}
		case iLockD:
			c.pending = event.Op{Kind: event.KindLock, Obj: dynObj(in, c.regs)}
		case iUnlockD:
			c.pending = event.Op{Kind: event.KindUnlock, Obj: dynObj(in, c.regs)}
		case iAssertC:
			ok := in.cmp.eval(c.regs[in.a], in.operand(c.regs))
			v := int64(0)
			if ok {
				v = 1
			}
			c.pending = event.Op{Kind: event.KindAssert, Val: v}
		case iPanic:
			c.pending = event.Op{Kind: event.KindPanic, Val: in.imm}
		case iSend:
			c.pending = event.Op{Kind: event.KindSend, Obj: in.a, Val: c.regs[in.b]}
		case iSendI:
			c.pending = event.Op{Kind: event.KindSend, Obj: in.a, Val: in.imm}
		case iRecv:
			c.pending = event.Op{Kind: event.KindRecv, Obj: in.b}
		case iClose:
			c.pending = event.Op{Kind: event.KindClose, Obj: in.a}
		case iSelect:
			// Obj = -1: unresolved; the machine commits to a concrete
			// channel and delivers the packed outcome through Resume.
			c.pending = event.Op{Kind: event.KindSelect, Obj: -1, Val: in.imm}
		case iDiverge:
			// The divergence sentinel: the machine fences the thread on
			// sight and never Resumes it, so the interpreter models "stuck
			// forever" without actually looping.
			c.pending = event.Op{Kind: event.KindDiverge}
		case iConst:
			c.regs[in.a] = in.imm
			c.pc++
			continue
		case iMov:
			c.regs[in.a] = c.regs[in.b]
			c.pc++
			continue
		case iAdd:
			c.regs[in.a] = c.regs[in.b] + c.regs[in.c]
			c.pc++
			continue
		case iAddI:
			c.regs[in.a] = c.regs[in.b] + in.imm
			c.pc++
			continue
		case iSub:
			c.regs[in.a] = c.regs[in.b] - c.regs[in.c]
			c.pc++
			continue
		case iMul:
			c.regs[in.a] = c.regs[in.b] * c.regs[in.c]
			c.pc++
			continue
		case iMod:
			m := c.regs[in.b] % in.imm
			if m < 0 {
				m += in.imm
			}
			c.regs[in.a] = m
			c.pc++
			continue
		case iJmp:
			c.pc = in.a
			continue
		case iJcc:
			if in.cmp.eval(c.regs[in.b], in.operand(c.regs)) {
				c.pc = in.a
			} else {
				c.pc++
			}
			continue
		default:
			panic("progdsl: invalid instruction reached interpreter")
		}
		c.have = true
		return c.pending, true
	}
}

// Resume implements model.Coroutine.
func (c *coroutine) Resume(result int64) {
	if !c.have {
		// Peek establishes the pending op; Resume without it is
		// an executor bug.
		panic("progdsl: Resume without pending operation")
	}
	in := c.code.instrs[c.pc]
	switch in.kind {
	case iRead, iReadD:
		c.regs[in.a] = result
	case iRecv:
		val, ok := event.UnpackRecvResult(result)
		c.regs[in.a] = val
		c.regs[in.c] = b2i(ok)
	case iSelect:
		ch, val, ok := event.UnpackSelectResult(result)
		c.regs[in.a] = val
		c.regs[in.b] = int64(ch)
		c.regs[in.c] = b2i(ok)
	}
	c.have = false
	if in.kind == iPanic {
		// A panicked thread never executes another instruction,
		// whatever follows in its code.
		c.done = true
		return
	}
	c.pc++
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// dynObj resolves a dynamic-index operand: base + (index register
// value modulo the array length), the modulo keeping stray indices in
// bounds deterministically.
func dynObj(in instr, regs []int64) int32 {
	i := regs[in.c] % in.imm
	if i < 0 {
		i += in.imm
	}
	return in.b + int32(i)
}

// Snapshot implements model.Snapshottable.
func (c *coroutine) Snapshot() model.Coroutine {
	cp := *c
	cp.regs = append([]int64(nil), c.regs...)
	return &cp
}

// SnapshotInto implements model.SnapshotReuser: it copies c into dst,
// reusing dst's register storage, when dst is a progdsl coroutine.
func (c *coroutine) SnapshotInto(dst model.Coroutine) model.Coroutine {
	d, ok := dst.(*coroutine)
	if !ok {
		return c.Snapshot()
	}
	regs := append(d.regs[:0], c.regs...)
	*d = *c
	d.regs = regs
	return d
}
