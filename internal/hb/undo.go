package hb

import (
	"fmt"
	"slices"

	"repro/internal/event"
	"repro/internal/vclock"
)

// The tracker's undo log, symmetric to the machine's (model.Machine):
// with undo enabled, apply records one reversal record per event, and
// UndoTo rewinds the tracker in place by popping records in LIFO
// order. Under the copy-on-write clock discipline a record is cheap —
// it stores the clock *references* an event overwrites, never clock
// contents — and reversal is O(1) per event: restore the saved
// references, subtract the event's hashes from the two commutative
// fingerprints, truncate the race log, and roll the arena back to the
// event's watermark (when no Apply result shares the storage).

// undoRec captures everything one apply mutates, keyed by the event's
// kind. aux holds the kind-specific old references:
//
//	read v:            rHB[v], rLazy[v], rSync[v]
//	write v:           wHB[v], rHB[v], wLazy[v], rLazy[v], wSync[v], rSync[v]
//	lock/unlock mu:    mHB[mu], mSync[mu]
//	spawn c:           hbT[c], lazyT[c], syncT[c]
//	send/recv/close c: chHB[c], chLazy[c], chSync[c]
//
// A select republishes the clocks of every channel in its case set, so
// its record spills into auxSel (three references per case channel,
// the only undo record that allocates).
type undoRec struct {
	thread event.ThreadID
	kind   event.Kind
	obj    int32

	// The stepping thread's clocks before the event.
	hbT, lazyT, syncT vclock.VC

	aux [6]vclock.VC

	// Select case-set clocks: chHB, chLazy, chSync per case channel,
	// ascending. val keeps the select's Op.Val so undo can re-walk the
	// same case set.
	auxSel []vclock.VC
	val    int64

	// Last-access metadata overwritten by variable events: lastReadEv
	// for reads, lastWriteEv for writes, plus the has* flags.
	oldEv            event.Event
	oldHasW, oldHasR bool

	// The event's contributions to the two fingerprints; both folds
	// are invertible (64-bit sum, xor).
	hbHash, lazyHash uint64

	racesLen int32

	// Arena watermark before the event: the free-space header and the
	// monotone allocation count (see clockArena.allocated).
	arenaChunk []int32
	arenaPos   int64
}

// record appends the reversal record for ev, capturing tracker state
// before apply mutates it. The returned pointer stays valid until the
// next append; apply fills the fingerprint hashes through it once the
// event's clocks are final. The record is built in place rather than
// copied in: UndoTo and Reset zero every record they pop, so a slot
// regained by growing the log holds only zero fields.
func (tr *Tracker) record(ev event.Event) *undoRec {
	t := int(ev.Thread)
	n := len(tr.undo)
	tr.undo = slices.Grow(tr.undo, 1)[:n+1]
	rec := &tr.undo[n]
	rec.thread, rec.kind, rec.obj = ev.Thread, ev.Kind, ev.Obj
	rec.hbT, rec.lazyT, rec.syncT = tr.hbT[t], tr.lazyT[t], tr.syncT[t]
	rec.racesLen = int32(len(tr.races))
	rec.arenaChunk, rec.arenaPos = tr.arena.chunk, tr.arena.allocated
	switch ev.Kind {
	case event.KindRead:
		v := ev.Obj
		rec.aux[0], rec.aux[1], rec.aux[2] = tr.rHB[v], tr.rLazy[v], tr.rSync[v]
		rec.oldEv, rec.oldHasR = tr.lastReadEv[v], tr.hasReadEv[v]
	case event.KindWrite:
		v := ev.Obj
		rec.aux[0], rec.aux[1] = tr.wHB[v], tr.rHB[v]
		rec.aux[2], rec.aux[3] = tr.wLazy[v], tr.rLazy[v]
		rec.aux[4], rec.aux[5] = tr.wSync[v], tr.rSync[v]
		rec.oldEv, rec.oldHasW, rec.oldHasR = tr.lastWriteEv[v], tr.hasWriteEv[v], tr.hasReadEv[v]
	case event.KindLock, event.KindUnlock:
		mu := ev.Obj
		rec.aux[0], rec.aux[1] = tr.mHB[mu], tr.mSync[mu]
	case event.KindSpawn:
		c := int(ev.Obj)
		rec.aux[0], rec.aux[1], rec.aux[2] = tr.hbT[c], tr.lazyT[c], tr.syncT[c]
	case event.KindSend, event.KindRecv, event.KindClose:
		c := ev.Obj
		rec.aux[0], rec.aux[1], rec.aux[2] = tr.chHB[c], tr.chLazy[c], tr.chSync[c]
	case event.KindSelect:
		rec.val = ev.Val
		for c, mask := int32(0), event.SelectCases(ev.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			rec.auxSel = append(rec.auxSel, tr.chHB[c], tr.chLazy[c], tr.chSync[c])
		}
	}
	return rec
}

// undoOne reverses one recorded event: the saved references point at
// immutable published clocks. Arena rollback is UndoTo's business.
func (tr *Tracker) undoOne(r *undoRec) {
	t := int(r.thread)
	tr.hbT[t], tr.lazyT[t], tr.syncT[t] = r.hbT, r.lazyT, r.syncT
	switch r.kind {
	case event.KindRead:
		v := r.obj
		tr.rHB[v], tr.rLazy[v], tr.rSync[v] = r.aux[0], r.aux[1], r.aux[2]
		tr.lastReadEv[v], tr.hasReadEv[v] = r.oldEv, r.oldHasR
	case event.KindWrite:
		v := r.obj
		tr.wHB[v], tr.rHB[v] = r.aux[0], r.aux[1]
		tr.wLazy[v], tr.rLazy[v] = r.aux[2], r.aux[3]
		tr.wSync[v], tr.rSync[v] = r.aux[4], r.aux[5]
		tr.lastWriteEv[v], tr.hasWriteEv[v], tr.hasReadEv[v] = r.oldEv, r.oldHasW, r.oldHasR
	case event.KindLock, event.KindUnlock:
		mu := r.obj
		tr.mHB[mu], tr.mSync[mu] = r.aux[0], r.aux[1]
	case event.KindSpawn:
		c := int(r.obj)
		tr.hbT[c], tr.lazyT[c], tr.syncT[c] = r.aux[0], r.aux[1], r.aux[2]
	case event.KindSend, event.KindRecv, event.KindClose:
		c := r.obj
		tr.chHB[c], tr.chLazy[c], tr.chSync[c] = r.aux[0], r.aux[1], r.aux[2]
	case event.KindSelect:
		i := 0
		for c, mask := int32(0), event.SelectCases(r.val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			tr.chHB[c], tr.chLazy[c], tr.chSync[c] = r.auxSel[i], r.auxSel[i+1], r.auxSel[i+2]
			i += 3
		}
	}
	tr.hbFP[0] -= r.hbHash
	tr.hbFP[1] ^= mix64(r.hbHash)
	tr.lazyFP[0] -= r.lazyHash
	tr.lazyFP[1] ^= mix64(r.lazyHash)
	tr.races = tr.races[:r.racesLen]
	tr.events--
}

// EnableUndo switches the tracker to record an undo log: every applied
// event appends one reversal record and UndoTo rewinds the tracker in
// place. Events applied before the call are not covered.
func (tr *Tracker) EnableUndo() { tr.undoEnabled = true }

// UndoMark returns the current position in the undo log. With undo
// enabled from the tracker's first event, the mark equals Events().
func (tr *Tracker) UndoMark() int { return len(tr.undo) }

// UndoTo rewinds the tracker to the state it had at mark (a value
// previously returned by UndoMark), popping reversal records in LIFO
// order. Fingerprints, races, per-thread and per-variable clocks and
// the event count are restored exactly; arena storage allocated since
// the mark is reused unless an Apply result taken since shares it, in
// which case it leaks to the GC (correct either way).
func (tr *Tracker) UndoTo(mark int) {
	if !tr.undoEnabled {
		panic("hb: UndoTo without EnableUndo")
	}
	if mark < 0 || mark > len(tr.undo) {
		panic(fmt.Sprintf("hb: UndoTo(%d) beyond undo log length %d", mark, len(tr.undo)))
	}
	for len(tr.undo) > mark {
		r := &tr.undo[len(tr.undo)-1]
		tr.undoOne(r)
		if r.arenaPos >= tr.arenaFloor {
			tr.arena.chunk = r.arenaChunk
			tr.arena.allocated = r.arenaPos
		}
		*r = undoRec{} // release the references; record relies on the zeroing
		tr.undo = tr.undo[:len(tr.undo)-1]
	}
	// An undo across a chunk boundary lands in an older chunk's nearly
	// full tail. Continue from the newest chunk's start instead, so the
	// next forward crossing does not make another chunk. That chunk is
	// private: a position is restored only at or above the floor, so
	// every clock in the chunk was handed out after the last Apply,
	// and after the event the restored position belongs to.
	if a := &tr.arena; a.allocated < a.baseAt {
		a.chunk, a.baseAt = a.base, a.allocated
	}
}
