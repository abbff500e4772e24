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
// order. Under the copy-on-write discipline a record is cheap — it
// stores the one triple reference per slot an event overwrites, never
// clock contents — and reversal is O(1) per event: restore the saved
// references and fingerprints, truncate the race log, and roll the
// arena back to the event's watermark (when no Apply result shares the
// storage).

// undoRec captures everything one apply mutates, keyed by the event's
// kind. aux holds the kind-specific old triple references:
//
//	read v:            read[v]
//	write v:           write[v], read[v]
//	lock/unlock mu:    mutex[mu]
//	spawn c:           thread[c]
//	send/recv/close c: chans[c]
//
// A select republishes the triple of every channel in its case set, so
// its record spills into auxSel (one reference per case channel).
type undoRec struct {
	thread event.ThreadID
	kind   event.Kind
	obj    int32

	// The stepping thread's triple before the event.
	prev vclock.VC

	aux [2]vclock.VC

	// Select case-set triples, one per case channel, ascending. val
	// keeps the select's Op.Val so undo can re-walk the same case set.
	// UndoTo keeps the emptied slice's storage in the popped slot, so
	// a warm log records selects without allocating.
	auxSel []vclock.VC
	val    int64

	// Last-access metadata overwritten by variable events: lastReadEv
	// for reads, lastWriteEv for writes, plus the has* flags.
	oldEv            event.Event
	oldHasW, oldHasR bool

	// Both fingerprints before the event.
	hbFP, lazyFP Fingerprint

	racesLen int32

	// Arena watermark before the event: the free-space header and the
	// monotone allocation count (see clockArena.allocated).
	arenaChunk []int32
	arenaPos   int64
}

// record appends the reversal record for ev, capturing tracker state
// before apply mutates it. The record is built in place rather than
// copied in, and writes exactly the fields undoOne reads for ev's
// kind: a reused slot may keep stale plain data in the others. Slots
// are popped with their references released and auxSel emptied (see
// UndoTo; Reset zeroes them).
func (tr *Tracker) record(ev event.Event) {
	n := len(tr.undo)
	tr.undo = slices.Grow(tr.undo, 1)[:n+1]
	rec := &tr.undo[n]
	rec.thread, rec.kind, rec.obj = ev.Thread, ev.Kind, ev.Obj
	rec.prev = tr.thread[ev.Thread]
	rec.hbFP, rec.lazyFP = tr.hbFP, tr.lazyFP
	rec.racesLen = int32(len(tr.races))
	rec.arenaChunk, rec.arenaPos = tr.arena.chunk, tr.arena.allocated
	switch ev.Kind {
	case event.KindRead:
		v := ev.Obj
		rec.aux[0] = tr.read[v]
		rec.oldEv, rec.oldHasR = tr.lastReadEv[v], tr.hasReadEv[v]
	case event.KindWrite:
		v := ev.Obj
		rec.aux[0], rec.aux[1] = tr.write[v], tr.read[v]
		rec.oldEv, rec.oldHasW, rec.oldHasR = tr.lastWriteEv[v], tr.hasWriteEv[v], tr.hasReadEv[v]
	case event.KindLock, event.KindUnlock:
		rec.aux[0] = tr.mutex[ev.Obj]
	case event.KindSpawn:
		rec.aux[0] = tr.thread[ev.Obj]
	case event.KindSend, event.KindRecv, event.KindClose:
		rec.aux[0] = tr.chans[ev.Obj]
	case event.KindSelect:
		rec.val = ev.Val
		for c, mask := int32(0), event.SelectCases(ev.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			rec.auxSel = append(rec.auxSel, tr.chans[c])
		}
	}
}

// undoOne reverses one recorded event: the saved references point at
// immutable published triples. Arena rollback is UndoTo's business.
func (tr *Tracker) undoOne(r *undoRec) {
	tr.thread[r.thread] = r.prev
	switch r.kind {
	case event.KindRead:
		v := r.obj
		tr.read[v] = r.aux[0]
		tr.lastReadEv[v], tr.hasReadEv[v] = r.oldEv, r.oldHasR
	case event.KindWrite:
		v := r.obj
		tr.write[v], tr.read[v] = r.aux[0], r.aux[1]
		tr.lastWriteEv[v], tr.hasWriteEv[v], tr.hasReadEv[v] = r.oldEv, r.oldHasW, r.oldHasR
	case event.KindLock, event.KindUnlock:
		tr.mutex[r.obj] = r.aux[0]
	case event.KindSpawn:
		tr.thread[r.obj] = r.aux[0]
	case event.KindSend, event.KindRecv, event.KindClose:
		tr.chans[r.obj] = r.aux[0]
	case event.KindSelect:
		i := 0
		for c, mask := int32(0), event.SelectCases(r.val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			tr.chans[c] = r.auxSel[i]
			i++
		}
	}
	tr.hbFP, tr.lazyFP = r.hbFP, r.lazyFP
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
		// Release the references, keeping auxSel's storage for reuse.
		r.prev, r.aux, r.arenaChunk = nil, [2]vclock.VC{}, nil
		clear(r.auxSel)
		r.auxSel = r.auxSel[:0]
		tr.undo = tr.undo[:len(tr.undo)-1]
	}
	// An undo across a chunk boundary, or back to the very watermark
	// at which the newest chunk was made, lands in an older chunk's
	// nearly full tail. Continue from the newest chunk's start instead,
	// so the next forward crossing does not make another chunk. That
	// chunk is private: a position is restored only at or above the
	// floor, so every clock in the chunk was handed out after the last
	// Apply, and after the event the restored position belongs to.
	if a := &tr.arena; a.allocated <= a.baseAt {
		a.chunk, a.baseAt = a.base, a.allocated
	}
}
