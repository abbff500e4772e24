package hb

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/vclock"
)

// Universe of the reset tests: 4 threads, 3 variables, 2 mutexes, 3
// channels.
const rsThreads, rsVars, rsMutexes, rsChans = 4, 3, 2, 3

// randomEvents returns n events over the reset universe covering every
// kind the tracker folds: reads and writes (racy, since nothing orders
// them), lock/unlock, spawn/join, send/recv/close and select. The
// tracker does not check program semantics, so any sequence is a valid
// input.
func randomEvents(rng *rand.Rand, n int) []event.Event {
	var idx [rsThreads]int32
	out := make([]event.Event, 0, n)
	for len(out) < n {
		t := event.ThreadID(rng.Intn(rsThreads))
		var op event.Op
		switch rng.Intn(11) {
		case 0:
			op = rd(int32(rng.Intn(rsVars)))
		case 1:
			op = wr(int32(rng.Intn(rsVars)), rng.Int63n(5))
		case 2:
			op = lk(int32(rng.Intn(rsMutexes)))
		case 3:
			op = ul(int32(rng.Intn(rsMutexes)))
		case 4:
			op = sp(int32(rng.Intn(rsThreads)))
		case 5:
			op = jn(int32(rng.Intn(rsThreads)))
		case 6:
			op = event.Op{Kind: event.KindSend, Obj: int32(rng.Intn(rsChans)), Val: rng.Int63n(5)}
		case 7:
			op = event.Op{Kind: event.KindRecv, Obj: int32(rng.Intn(rsChans))}
		case 8:
			op = event.Op{Kind: event.KindClose, Obj: int32(rng.Intn(rsChans))}
		case 9:
			mask := 1 + rng.Int63n(1<<rsChans-1)
			op = event.Op{Kind: event.KindSelect, Obj: -1, Val: mask}
		default:
			op = wr(int32(rng.Intn(rsVars)), rng.Int63n(5))
		}
		out = append(out, ev(t, idx[t], op))
		idx[t]++
	}
	return out
}

// sameTracker compares every piece of state a tracker carries: each
// thread, variable, mutex and channel clock of all three relations
// (the slab), the last-access events and flags, both fingerprints, the
// race log and the event count.
func sameTracker(t *testing.T, where string, got, want *Tracker) {
	t.Helper()
	if !reflect.DeepEqual(got.slab, want.slab) {
		t.Fatalf("%s: clocks differ:\n got %v\nwant %v", where, got.slab, want.slab)
	}
	if !reflect.DeepEqual(got.evSlab, want.evSlab) || !reflect.DeepEqual(got.hasSlab, want.hasSlab) {
		t.Fatalf("%s: last-access metadata differs", where)
	}
	if got.HBFingerprint() != want.HBFingerprint() || got.LazyFingerprint() != want.LazyFingerprint() {
		t.Fatalf("%s: fingerprints differ", where)
	}
	if len(got.Races()) != len(want.Races()) || len(want.Races()) > 0 && !reflect.DeepEqual(got.Races(), want.Races()) {
		t.Fatalf("%s: races %v, want %v", where, got.Races(), want.Races())
	}
	if got.Events() != want.Events() {
		t.Fatalf("%s: %d events, want %d", where, got.Events(), want.Events())
	}
}

// copyClocks deep-copies a clock list, so later arena reuse under the
// originals shows as a difference.
func copyClocks(cs []vclock.VC) []vclock.VC {
	out := make([]vclock.VC, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}

// TestResetMatchesFresh: after arbitrary event prefixes, a Reset
// tracker equals a fresh one, and replaying further events on it
// reaches exactly the state a fresh tracker reaches — with and without
// an undo log, and across repeated resets that reuse the arena.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, undo := range []bool{false, true} {
		tr := NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans)
		if undo {
			tr.EnableUndo()
		}
		for iter := 0; iter < 200; iter++ {
			for _, e := range randomEvents(rng, rng.Intn(40)) {
				tr.ApplyFast(e)
			}
			if undo && rng.Intn(2) == 0 {
				tr.UndoTo(rng.Intn(tr.UndoMark() + 1))
			}
			tr.Reset()
			fresh := NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans)
			sameTracker(t, "after Reset", tr, fresh)
			if undo && tr.UndoMark() != 0 {
				t.Fatalf("undo log holds %d records after Reset", tr.UndoMark())
			}
			for _, e := range randomEvents(rng, rng.Intn(40)) {
				tr.ApplyFast(e)
				fresh.ApplyFast(e)
			}
			sameTracker(t, "replay after Reset", tr, fresh)
			if undo {
				tr.UndoTo(0)
				sameTracker(t, "UndoTo(0) after Reset", tr, NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans))
			}
		}
	}
}

// TestResetRespectsArenaFloor: Apply results taken before a Reset
// share the tracker's arena; replaying on the reset tracker must not
// reuse their storage.
func TestResetRespectsArenaFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := NewTrackerChans(rsThreads, rsVars, rsMutexes, rsChans)
	tr.EnableUndo()
	for iter := 0; iter < 200; iter++ {
		evs := randomEvents(rng, 1+rng.Intn(40))
		cut := rng.Intn(len(evs))
		for _, e := range evs[:cut] {
			tr.ApplyFast(e)
		}
		applied := tr.Apply(evs[cut])
		cut++
		wantApplied := copyClocks([]vclock.VC{applied.HB, applied.Lazy})
		for _, e := range evs[cut:] {
			tr.ApplyFast(e)
		}

		tr.Reset()
		for _, e := range randomEvents(rng, 40) {
			tr.ApplyFast(e)
		}
		if got := copyClocks([]vclock.VC{applied.HB, applied.Lazy}); !reflect.DeepEqual(got, wantApplied) {
			t.Fatalf("iter %d: Apply's clocks changed under a Reset tracker's replay: %v, want %v", iter, got, wantApplied)
		}
		tr.Reset()
	}
}

// TestResetKeepsEarlierRaces: the race log a caller read before a
// Reset is never overwritten by the next execution's races.
func TestResetKeepsEarlierRaces(t *testing.T) {
	tr := NewTracker(2, 1, 0)
	tr.ApplyFast(ev(0, 0, wr(0, 1)))
	tr.ApplyFast(ev(1, 0, wr(0, 2)))
	races := tr.Races()
	want := append([]Race(nil), races...)
	if len(want) != 1 {
		t.Fatalf("setup: %d races, want 1", len(want))
	}
	tr.Reset()
	tr.ApplyFast(ev(1, 0, rd(0)))
	tr.ApplyFast(ev(0, 0, wr(0, 3)))
	if !reflect.DeepEqual(races, want) {
		t.Fatalf("earlier race log overwritten: %v, want %v", races, want)
	}
}

// TestResetReusesStorage: once the arena has grown to what an
// execution uses, a Reset and a race-free replay allocate nothing.
func TestResetReusesStorage(t *testing.T) {
	tr := NewTracker(3, 2, 1)
	seq := undoSeq[4:]
	var idx [3]int32
	evs := make([]event.Event, 0, len(seq))
	for _, e := range seq { // renumber: the prefix's spawns are dropped
		e.Index = idx[e.Thread]
		idx[e.Thread]++
		evs = append(evs, e)
	}
	run := func() {
		tr.Reset()
		for _, e := range evs {
			tr.ApplyFast(e)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if len(tr.Races()) != 0 {
		t.Fatalf("setup: replay raced %v", tr.Races())
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("Reset + replay allocated %.1f times, want 0", allocs)
	}
	// Bytes catch what an allocation count averages away: an arena
	// that keeps bump-allocating instead of restarting its chunk pays
	// a new chunk only every few runs.
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got != 0 {
		t.Fatalf("Reset + replay allocated %d bytes per run, want 0", got)
	}
}
