// Package hb computes happens-before relations over execution traces,
// online, one event at a time. It is the core of the reproduction of
// "The Lazy Happens-Before Relation" (Thomson & Donaldson, PPoPP 2015).
//
// Three relations are tracked simultaneously, as vector clocks:
//
//   - The regular happens-before relation (HBR): program order; edges
//     between conflicting variable accesses (same variable, at least
//     one write); a total order per mutex over all lock/unlock events;
//     spawn/join edges. This is condition (a)+(b)+(c) of the paper's
//     Section 2 definition.
//   - The lazy happens-before relation (lazy HBR): identical except
//     that lock and unlock events induce no inter-thread edges (the
//     paper's modified condition (b)). The events remain nodes of the
//     partial order and still carry program-order and transitive edges.
//   - The sync-only relation: program order plus mutex and spawn/join
//     edges but no variable edges. Conflicting variable accesses that
//     are unordered by this relation constitute data races; the tracker
//     reports them FastTrack-style.
//
// Channel operations (send/recv/close/select) induce a per-channel
// total order in all three relations, mirroring event.Dependent: any
// two operations touching a common channel are dependent, so the
// happens-before relation used for partial-order reduction must order
// them. The per-channel clock subsumes the exact send→recv pairing and
// close→recv edges (the k-th receive joins a clock that already
// includes the k-th send, and any receive after a close joins the
// close's clock). Unlike mutex edges, channel edges are KEPT by the
// lazy relation: channels carry data, so their ordering is
// value-relevant the way variable edges are, not schedule-incidental
// the way lock handoffs are. A select joins and republishes the clocks
// of every channel in its case set — committing (even to the default
// case) observes the readiness of all of them.
//
// Each partial order is summarised by a canonical Fingerprint that is
// invariant under linearization, so two schedules have equal
// fingerprints iff they have equal (lazy) HBRs (up to hash collision
// over 128 bits). Fingerprints of every prefix are available, which is
// what HBR caching and lazy HBR caching consume.
//
// # Copy-on-write clocks
//
// The tracker follows an immutable-after-publication discipline: every
// clock reachable from tracker state (thread clocks, variable metadata,
// mutex clocks, clocks returned by Apply) is never mutated again once
// stored. Updates allocate a fresh clock — bump-allocated from an
// internal arena, so the common case costs zero heap allocations — and
// replace the reference. Published clocks can therefore be shared
// freely: an undo record saves the few clock references an event
// overwrites and no clock contents, and the clocks Apply returns stay
// valid as the tracker moves on.
package hb

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/vclock"
)

// Fingerprint canonically summarises a partial order of labelled
// events. It combines per-event hashes with commutative operations
// (64-bit sum and xor of an independently mixed copy), so the result is
// independent of the order in which events are added.
type Fingerprint [2]uint64

// Add folds one event hash into the fingerprint.
func (f *Fingerprint) Add(h uint64) {
	f[0] += h
	f[1] ^= mix64(h)
}

// IsZero reports whether no event has been added.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// String renders the fingerprint in hex.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x-%016x", f[0], f[1]) }

// mix64 is the splitmix64 finalizer, used to decorrelate the xor
// accumulator from the sum accumulator.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Race reports a pair of conflicting variable accesses unordered by the
// sync-only relation.
type Race struct {
	Var int32
	// Access is the later access (the one at which the race was
	// detected).
	Access event.Event
	// Prev is a representative earlier conflicting access.
	Prev event.Event
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("data race on v%d: %v vs %v", r.Var, r.Prev, r.Access)
}

// Clocks carries the per-event results of Tracker.Apply. The clocks are
// shared with the tracker's internal state under the copy-on-write
// discipline: they are immutable and must not be modified.
type Clocks struct {
	// HB is the event's regular happens-before vector clock.
	HB vclock.VC
	// Lazy is the event's lazy happens-before vector clock.
	Lazy vclock.VC
}

// clockArena bump-allocates fixed-width clocks from chunks. A
// published clock stays immutable, so arena storage is handed out
// again only when nothing can still reference it: an undo rewind
// reuses the storage allocated since its mark (from the newest chunk's
// start when it crossed back into an older chunk), and a Reset reuses
// the current chunk from its start — each only above the tracker's
// arena floor (see Tracker.arenaFloor). Older chunks are left to the GC.
// Chunk sizes double from a small start, so a tracker over a short
// execution stays small and a reset tracker's retained chunk grows
// only to what one execution used.
type clockArena struct {
	chunk []int32
	next  int
	// allocated counts ints handed out over the arena's lifetime. It
	// is monotone under forward execution, which makes it a watermark:
	// the undo log records it per event, so rewinding can tell whether
	// the clocks allocated since a mark are still private to this
	// tracker (reusable) or returned by Apply (must leak to GC).
	allocated int64
	// base is the most recently made chunk, whole, and baseAt the
	// watermark at which it started: Reset rewinds to them, and an
	// undo that crosses back below baseAt restarts base there.
	base   []int32
	baseAt int64
}

// maxChunkInts caps chunk growth at 16 KiB per chunk.
const maxChunkInts = 4096

func (a *clockArena) alloc(n int) vclock.VC {
	if len(a.chunk) < n {
		size := a.next
		if size < 4*n {
			size = 4 * n
		}
		a.chunk = make([]int32, size)
		a.base, a.baseAt = a.chunk, a.allocated
		a.next = size * 2
		if a.next > maxChunkInts {
			a.next = maxChunkInts
		}
	}
	a.allocated += int64(n)
	v := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return vclock.VC(v)
}

// Tracker computes the three relations online. It is not safe for
// concurrent use; explorations are single-threaded by construction.
type Tracker struct {
	nthreads, nvars, nmutexes, nchans int

	// slab backs every clock-reference field below in one allocation,
	// so Reset is a single clear. All clocks referenced from the slab
	// are immutable (copy-on-write); only the references change.
	slab []vclock.VC

	// Per-thread clocks of the last executed event (bottom before
	// the first event). For spawned threads these are seeded with
	// the parent's spawn-event clock.
	hbT, lazyT, syncT []vclock.VC

	// Regular-HB variable metadata: clock of the last write, and the
	// join of the clocks of all reads since that write.
	wHB, rHB []vclock.VC
	// Lazy-HB variable metadata (identical structure; variable edges
	// are kept by the lazy relation).
	wLazy, rLazy []vclock.VC
	// Sync-only variable metadata, for race detection only.
	wSync, rSync []vclock.VC

	// Per-mutex clock of the last lock/unlock event, for the regular
	// and sync relations. The lazy relation has no mutex state.
	mHB, mSync []vclock.VC

	// Per-channel clock of the last channel operation, for all three
	// relations: channel edges are data-carrying, so the lazy relation
	// keeps them (only mutex edges are dropped).
	chHB, chLazy, chSync []vclock.VC

	// Last-access events per variable, for race reports; evSlab and
	// hasSlab back the four views in one allocation each.
	evSlab                  []event.Event
	lastWriteEv, lastReadEv []event.Event
	hasSlab                 []bool
	hasWriteEv, hasReadEv   []bool

	hbFP, lazyFP Fingerprint
	races        []Race
	events       int

	arena clockArena

	// undo is the reversal log recorded when undoEnabled: one record
	// per applied event, letting UndoTo rewind the tracker in place
	// (see undo.go). arenaFloor is the arena watermark at the last
	// Apply: storage below it is shared with returned clocks and is
	// never reused by UndoTo or Reset.
	undo        []undoRec
	undoEnabled bool
	arenaFloor  int64
}

// carve derives the named views from the backing slabs.
func (tr *Tracker) carve() {
	s := tr.slab
	take := func(n int) []vclock.VC {
		out := s[:n:n]
		s = s[n:]
		return out
	}
	n, v, m, c := tr.nthreads, tr.nvars, tr.nmutexes, tr.nchans
	tr.hbT, tr.lazyT, tr.syncT = take(n), take(n), take(n)
	tr.wHB, tr.rHB = take(v), take(v)
	tr.wLazy, tr.rLazy = take(v), take(v)
	tr.wSync, tr.rSync = take(v), take(v)
	tr.mHB, tr.mSync = take(m), take(m)
	tr.chHB, tr.chLazy, tr.chSync = take(c), take(c), take(c)
	tr.lastWriteEv, tr.lastReadEv = tr.evSlab[:v:v], tr.evSlab[v:]
	tr.hasWriteEv, tr.hasReadEv = tr.hasSlab[:v:v], tr.hasSlab[v:]
}

// NewTracker creates a tracker for a channel-free program universe of
// the given sizes.
func NewTracker(nthreads, nvars, nmutexes int) *Tracker {
	return NewTrackerChans(nthreads, nvars, nmutexes, 0)
}

// NewTrackerChans creates a tracker for a program universe that
// includes nchans channels.
func NewTrackerChans(nthreads, nvars, nmutexes, nchans int) *Tracker {
	tr := &Tracker{
		nthreads: nthreads,
		nvars:    nvars,
		nmutexes: nmutexes,
		nchans:   nchans,
		slab:     make([]vclock.VC, 3*nthreads+6*nvars+2*nmutexes+3*nchans),
		evSlab:   make([]event.Event, 2*nvars),
		hasSlab:  make([]bool, 2*nvars),
	}
	tr.carve()
	return tr
}

// Events returns the number of events applied so far.
func (tr *Tracker) Events() int { return tr.events }

// HBFingerprint returns the fingerprint of the regular HBR of the
// event prefix applied so far.
func (tr *Tracker) HBFingerprint() Fingerprint { return tr.hbFP }

// LazyFingerprint returns the fingerprint of the lazy HBR of the event
// prefix applied so far.
func (tr *Tracker) LazyFingerprint() Fingerprint { return tr.lazyFP }

// Races returns the data races detected so far.
func (tr *Tracker) Races() []Race { return tr.races }

// ThreadClock returns thread t's regular-HB clock after its last event.
// The returned slice must not be modified.
func (tr *Tracker) ThreadClock(t event.ThreadID) vclock.VC { return tr.hbT[t] }

// LazyThreadClock returns thread t's lazy-HB clock after its last
// event. The returned slice must not be modified.
func (tr *Tracker) LazyThreadClock(t event.ThreadID) vclock.VC { return tr.lazyT[t] }

// HappensBeforeNext reports whether an already-executed event e (with
// per-thread index e.Index, executed by e.Thread) happens-before the
// *next* transition of thread p under the regular HBR. This is the
// i →(S) p test of Flanagan–Godefroid DPOR: e is ordered before
// whatever p does next iff p's last event already knows e.Index+1
// events of e.Thread (or p is e's own thread).
func (tr *Tracker) HappensBeforeNext(e event.Event, p event.ThreadID) bool {
	if e.Thread == p {
		return true
	}
	return tr.hbT[p].Get(int(e.Thread)) >= e.Index+1
}

// RacesWithNext reports whether the already-executed event e races
// with thread q's pending (announced but unexecuted) operation op:
// the two operations are dependent, could be co-enabled in some state,
// and e is not already ordered before q's next transition by the
// regular happens-before relation. This is the independence query
// partial-order sampling (POS) consults after executing e: a pending
// operation that commutes with e reaches the same Mazurkiewicz trace
// class whichever order the two run in, so only the threads whose
// pending operations race with e need their schedule priorities
// redrawn — the correction that steers a random walk toward sampling
// trace classes, not schedules, closer to uniformly.
func (tr *Tracker) RacesWithNext(e event.Event, q event.ThreadID, op event.Op) bool {
	if q == e.Thread {
		return false
	}
	if !event.Dependent(e.Op, op) || !event.MayBeCoEnabled(e.Op, op) {
		return false
	}
	return !tr.HappensBeforeNext(e, q)
}

// fresh returns a new unpublished full-width clock initialised to
// parent (bottom if parent is nil/short). The tail beyond parent is
// cleared explicitly: arena storage is zeroed when a chunk is made but
// not when an undo rewind hands the same region out again.
func (tr *Tracker) fresh(parent vclock.VC) vclock.VC {
	v := tr.arena.alloc(tr.nthreads)
	n := copy(v, parent)
	clear(v[n:])
	return v
}

// joined returns a published clock equal to base ⊔ with. When base is
// bottom the already-published with is shared directly (copy-on-write);
// otherwise a fresh clock is built. with must be a published full-width
// clock.
func (tr *Tracker) joined(base, with vclock.VC) vclock.VC {
	if len(base) == 0 {
		return with
	}
	v := tr.fresh(base)
	return v.Join(with)
}

// Apply folds one executed event into all three relations and returns
// the event's regular and lazy clocks. The returned clocks are shared,
// immutable views of tracker state and must not be modified. They
// stay valid across later UndoTo and Reset calls: Apply raises the
// arena floor over them.
func (tr *Tracker) Apply(ev event.Event) Clocks {
	hb, lazy := tr.apply(ev)
	tr.arenaFloor = tr.arena.allocated
	return Clocks{HB: hb, Lazy: lazy}
}

// ApplyFast is Apply for callers that do not consume the per-event
// clocks (the exploration hot path).
func (tr *Tracker) ApplyFast(ev event.Event) { tr.apply(ev) }

// apply computes the event's clocks on fresh arena storage, publishes
// them into tracker state (sharing, never copying) and folds the event
// into both fingerprints.
func (tr *Tracker) apply(ev event.Event) (hbc, lazyc vclock.VC) {
	t := int(ev.Thread)

	var rec *undoRec
	if tr.undoEnabled {
		rec = tr.record(ev)
	}

	// Start from the thread's program-order predecessor and tick. The
	// three clocks are unpublished until stored below, so in-place
	// Join/increment is safe; all clocks are full-width, so Join never
	// reallocates.
	hb := tr.fresh(tr.hbT[t])
	hb[t]++
	lazy := tr.fresh(tr.lazyT[t])
	lazy[t]++
	sync := tr.fresh(tr.syncT[t])
	sync[t]++

	switch ev.Kind {
	case event.KindRead:
		v := ev.Obj
		hb = hb.Join(tr.wHB[v])
		lazy = lazy.Join(tr.wLazy[v])
		if tr.hasWriteEv[v] && !tr.wSync[v].Leq(sync) {
			tr.races = append(tr.races, Race{Var: v, Access: ev, Prev: tr.lastWriteEv[v]})
		}
		tr.rHB[v] = tr.joined(tr.rHB[v], hb)
		tr.rLazy[v] = tr.joined(tr.rLazy[v], lazy)
		tr.rSync[v] = tr.joined(tr.rSync[v], sync)
		tr.lastReadEv[v] = ev
		tr.hasReadEv[v] = true

	case event.KindWrite:
		v := ev.Obj
		hb = hb.Join(tr.wHB[v]).Join(tr.rHB[v])
		lazy = lazy.Join(tr.wLazy[v]).Join(tr.rLazy[v])
		if tr.hasWriteEv[v] && !tr.wSync[v].Leq(sync) {
			tr.races = append(tr.races, Race{Var: v, Access: ev, Prev: tr.lastWriteEv[v]})
		} else if tr.hasReadEv[v] && !tr.rSync[v].Leq(sync) {
			tr.races = append(tr.races, Race{Var: v, Access: ev, Prev: tr.lastReadEv[v]})
		}
		tr.wHB[v] = hb
		tr.rHB[v] = nil
		tr.wLazy[v] = lazy
		tr.rLazy[v] = nil
		tr.wSync[v] = sync
		tr.rSync[v] = nil
		tr.lastWriteEv[v] = ev
		tr.hasWriteEv[v] = true
		tr.hasReadEv[v] = false

	case event.KindLock, event.KindUnlock:
		mu := ev.Obj
		// Mutex edges exist in the regular and sync relations
		// only: this is the entire difference that defines the
		// lazy HBR.
		hb = hb.Join(tr.mHB[mu])
		sync = sync.Join(tr.mSync[mu])
		tr.mHB[mu] = hb
		tr.mSync[mu] = sync

	case event.KindSpawn:
		// The child's first event must order after this spawn, in
		// all three relations (spawn edges are not mutex edges).
		c := int(ev.Obj)
		tr.hbT[c] = tr.joined(tr.hbT[c], hb)
		tr.lazyT[c] = tr.joined(tr.lazyT[c], lazy)
		tr.syncT[c] = tr.joined(tr.syncT[c], sync)

	case event.KindJoin:
		c := int(ev.Obj)
		hb = hb.Join(tr.hbT[c])
		lazy = lazy.Join(tr.lazyT[c])
		sync = sync.Join(tr.syncT[c])

	case event.KindAssert, event.KindPanic:
		// Thread-local: program order only.

	case event.KindSend, event.KindRecv, event.KindClose:
		// One total order per channel, in all three relations: every
		// pair of same-channel operations is dependent (the ring order,
		// the drained value, or a panic depends on their order), so all
		// of them must be HB-ordered; the per-channel clock achieves
		// exactly that and subsumes send→recv pairing and close→recv
		// edges. Channel edges carry data, so the lazy relation keeps
		// them (contrast KindLock/KindUnlock above).
		c := ev.Obj
		hb = hb.Join(tr.chHB[c])
		lazy = lazy.Join(tr.chLazy[c])
		sync = sync.Join(tr.chSync[c])
		tr.chHB[c] = hb
		tr.chLazy[c] = lazy
		tr.chSync[c] = sync

	case event.KindSelect:
		// A commit observes every case channel (it picked the lowest
		// ready one, or proved none ready for the default), so it joins
		// and republishes all of their clocks.
		for c, mask := int32(0), event.SelectCases(ev.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			hb = hb.Join(tr.chHB[c])
			lazy = lazy.Join(tr.chLazy[c])
			sync = sync.Join(tr.chSync[c])
		}
		for c, mask := int32(0), event.SelectCases(ev.Val); mask != 0; c, mask = c+1, mask>>1 {
			if mask&1 == 0 {
				continue
			}
			tr.chHB[c] = hb
			tr.chLazy[c] = lazy
			tr.chSync[c] = sync
		}
	}

	tr.hbT[t] = hb
	tr.lazyT[t] = lazy
	tr.syncT[t] = sync

	lbl := labelHash(ev)
	hh, lh := lbl^mix64(hb.Hash()), lbl^mix64(lazy.Hash())
	tr.hbFP.Add(hh)
	tr.lazyFP.Add(lh)
	tr.events++

	if rec != nil {
		// The fingerprint folds are commutative and invertible, so the
		// record keeps the two hashes and undo subtracts them back out.
		rec.hbHash, rec.lazyHash = hh, lh
	}

	return hb, lazy
}

// labelHash hashes an HBR node's schedule-independent label (thread,
// per-thread index, kind, object, written/asserted value). A node's
// hash in a relation is labelHash(ev) ^ mix64(vc.Hash()), where vc,
// the event's clock in that relation, captures its incoming edges
// exactly; mix64 decorrelates the clock from the label.
func labelHash(ev event.Event) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix32 := func(x uint32) {
		mixByte(byte(x))
		mixByte(byte(x >> 8))
		mixByte(byte(x >> 16))
		mixByte(byte(x >> 24))
	}
	mix32(uint32(ev.Thread))
	mix32(uint32(ev.Index))
	mixByte(byte(ev.Kind))
	mix32(uint32(ev.Obj))
	switch ev.Kind {
	case event.KindWrite, event.KindAssert, event.KindPanic,
		event.KindSend, event.KindSelect:
		// Val is part of the node's label: the written/sent value, the
		// assert outcome, the panic code, or a select's case set.
		mix32(uint32(uint64(ev.Val)))
		mix32(uint32(uint64(ev.Val) >> 32))
	}
	return h
}

// Reset returns the tracker to its initial state (that of
// NewTrackerChans over the same universe) in place, reusing its slabs,
// undo log storage and clock arena. The undo switch is kept. The race
// log is dropped rather than truncated, so a slice returned by Races
// before the call is never overwritten. The arena restarts at its
// current chunk only when the arena floor shows that no Apply result
// shares that chunk; otherwise it keeps its position and the shared
// storage is left to the GC.
func (tr *Tracker) Reset() {
	clear(tr.slab)
	clear(tr.evSlab)
	clear(tr.hasSlab)
	tr.hbFP, tr.lazyFP = Fingerprint{}, Fingerprint{}
	tr.races = nil
	tr.events = 0
	clear(tr.undo) // release the references; record relies on the zeroing
	tr.undo = tr.undo[:0]
	if a := &tr.arena; a.base != nil && tr.arenaFloor <= a.baseAt {
		a.chunk, a.allocated = a.base, a.baseAt
	}
}
