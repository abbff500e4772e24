package hb

import (
	"fmt"

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
// event's watermark (when no clone shares the storage).

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
// event's clocks are final.
func (tr *Tracker) record(ev event.Event) *undoRec {
	t := int(ev.Thread)
	tr.undo = append(tr.undo, undoRec{
		thread:     ev.Thread,
		kind:       ev.Kind,
		obj:        ev.Obj,
		hbT:        tr.hbT[t],
		lazyT:      tr.lazyT[t],
		syncT:      tr.syncT[t],
		racesLen:   int32(len(tr.races)),
		arenaChunk: tr.arena.chunk,
		arenaPos:   tr.arena.allocated,
	})
	rec := &tr.undo[len(tr.undo)-1]
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

// undoOne reverses one recorded event on dst. dst is either the
// recording tracker itself (UndoTo) or a clone of it (CloneTo) — the
// saved references point at immutable published clocks, so they are
// valid in both. Arena rollback is the caller's business: it is only
// sound on the tracker that owns the arena.
func undoOne(dst *Tracker, r *undoRec) {
	t := int(r.thread)
	dst.hbT[t], dst.lazyT[t], dst.syncT[t] = r.hbT, r.lazyT, r.syncT
	switch r.kind {
	case event.KindRead:
		v := r.obj
		dst.rHB[v], dst.rLazy[v], dst.rSync[v] = r.aux[0], r.aux[1], r.aux[2]
		dst.lastReadEv[v], dst.hasReadEv[v] = r.oldEv, r.oldHasR
	case event.KindWrite:
		v := r.obj
		dst.wHB[v], dst.rHB[v] = r.aux[0], r.aux[1]
		dst.wLazy[v], dst.rLazy[v] = r.aux[2], r.aux[3]
		dst.wSync[v], dst.rSync[v] = r.aux[4], r.aux[5]
		dst.lastWriteEv[v], dst.hasWriteEv[v], dst.hasReadEv[v] = r.oldEv, r.oldHasW, r.oldHasR
	case event.KindLock, event.KindUnlock:
		mu := r.obj
		dst.mHB[mu], dst.mSync[mu] = r.aux[0], r.aux[1]
	case event.KindSpawn:
		c := int(r.obj)
		dst.hbT[c], dst.lazyT[c], dst.syncT[c] = r.aux[0], r.aux[1], r.aux[2]
	case event.KindSend, event.KindRecv, event.KindClose:
		c := r.obj
		dst.chHB[c], dst.chLazy[c], dst.chSync[c] = r.aux[0], r.aux[1], r.aux[2]
	case event.KindSelect:
		i := 0
		for c, mask := int32(0), event.SelectCases(r.val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			dst.chHB[c], dst.chLazy[c], dst.chSync[c] = r.auxSel[i], r.auxSel[i+1], r.auxSel[i+2]
			i += 3
		}
	}
	dst.hbFP[0] -= r.hbHash
	dst.hbFP[1] ^= mix64(r.hbHash)
	dst.lazyFP[0] -= r.lazyHash
	dst.lazyFP[1] ^= mix64(r.lazyHash)
	dst.races = dst.races[:r.racesLen]
	dst.events--
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
// the mark is reused unless a Clone taken since shares it, in which
// case it leaks to the GC (correct either way).
func (tr *Tracker) UndoTo(mark int) {
	if !tr.undoEnabled {
		panic("hb: UndoTo without EnableUndo")
	}
	if mark < 0 || mark > len(tr.undo) {
		panic(fmt.Sprintf("hb: UndoTo(%d) beyond undo log length %d", mark, len(tr.undo)))
	}
	for len(tr.undo) > mark {
		r := &tr.undo[len(tr.undo)-1]
		undoOne(tr, r)
		if r.arenaPos >= tr.arenaFloor {
			tr.arena.chunk = r.arenaChunk
			tr.arena.allocated = r.arenaPos
		}
		*r = undoRec{} // release the clock and chunk references
		tr.undo = tr.undo[:len(tr.undo)-1]
	}
}

// CloneTo returns an independent tracker equal to the receiver's state
// at mark, without disturbing the receiver: a Clone rewound through the
// receiver's undo records. Work-steal coordinators use it to ship a
// seed for an interior node of the schedule tree while the engine's
// live tracker sits at the frontier. The clone has a fresh arena and
// no undo log of its own.
func (tr *Tracker) CloneTo(mark int) *Tracker {
	if mark < 0 || mark > len(tr.undo) {
		panic(fmt.Sprintf("hb: CloneTo(%d) beyond undo log length %d", mark, len(tr.undo)))
	}
	cp := tr.Clone()
	for i := len(tr.undo) - 1; i >= mark; i-- {
		undoOne(cp, &tr.undo[i])
	}
	return cp
}
