package hb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/vclock"
)

// An independent reference for the tracker: refModel keeps an event
// sequence with, per event, its explicit ancestor sets in the three
// relations, built from the relations' edge definitions (every earlier
// conflicting access, every earlier operation on the same mutex or
// channel, spawn and join edges, program order) and closed
// transitively. Clocks, fingerprints and races are then read off those
// sets; nothing is shared with the tracker's clock arithmetic.

// Universe of the reference checks.
const refThreads, refVars, refMutexes, refChans = 4, 3, 2, 3

// refMaxEvents caps a decoded sequence; ancestor sets are bitsets over
// event positions.
const refMaxEvents = 128

type bitset [refMaxEvents / 64]uint64

func (b *bitset) set(i int)     { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b *bitset) union(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// The reference's relations, indexing refEvent.anc.
const (
	refHB = iota
	refLazy
	refSync
)

type refEvent struct {
	ev event.Event
	// anc[r] holds the positions of the event's strict ancestors in
	// relation r; clk[r] is the vector clock read off it.
	anc [3]bitset
	clk [3]vclock.VC
	// race is the race reported at this event, if any.
	race *Race
}

type refModel struct {
	evs []refEvent
}

// chanSet returns the channels an operation touches.
func chanSet(op event.Op) uint64 {
	switch op.Kind {
	case event.KindSend, event.KindRecv, event.KindClose:
		return 1 << uint(op.Obj)
	case event.KindSelect:
		return uint64(event.SelectCases(op.Val))
	}
	return 0
}

// edge reports which relations order an earlier event a directly
// before a later event b.
func edge(a, b event.Event) (hb, lazy, sync bool) {
	if a.Thread == b.Thread {
		return true, true, true
	}
	switch {
	case a.Kind == event.KindSpawn && event.ThreadID(a.Obj) == b.Thread,
		b.Kind == event.KindJoin && event.ThreadID(b.Obj) == a.Thread,
		a.Kind == event.KindSpawn && b.Kind == event.KindJoin && a.Obj == b.Obj:
		return true, true, true
	case chanSet(a.Op)&chanSet(b.Op) != 0:
		return true, true, true
	}
	isMutex := func(k event.Kind) bool { return k == event.KindLock || k == event.KindUnlock }
	if isMutex(a.Kind) && isMutex(b.Kind) && a.Obj == b.Obj {
		return true, false, true
	}
	isVar := func(k event.Kind) bool { return k == event.KindRead || k == event.KindWrite }
	if isVar(a.Kind) && isVar(b.Kind) && a.Obj == b.Obj &&
		(a.Kind == event.KindWrite || b.Kind == event.KindWrite) {
		return true, true, false
	}
	return false, false, false
}

// add appends e, closing its direct edges from every earlier event
// transitively, and derives its clocks and race.
func (m *refModel) add(e event.Event) {
	re := refEvent{ev: e}
	for i, a := range m.evs {
		hb, lazy, sync := edge(a.ev, e)
		for r, on := range [3]bool{hb, lazy, sync} {
			if on {
				re.anc[r].set(i)
				re.anc[r].union(a.anc[r])
			}
		}
	}
	for r := range re.clk {
		// Per thread, the count of that thread's events among e and
		// its ancestors.
		c := vclock.New(refThreads)
		c[e.Thread] = e.Index + 1
		for i, a := range m.evs {
			if re.anc[r].has(i) && a.ev.Index+1 > c[a.ev.Thread] {
				c[a.ev.Thread] = a.ev.Index + 1
			}
		}
		re.clk[r] = c
	}
	re.race = m.raceAt(&re)
	m.evs = append(m.evs, re)
}

// raceAt returns the race the tracker's contract reports at re, read
// off the sync relation: a read races with the last earlier write
// unless that write is its sync ancestor; a write races with the last
// write the same way, or else with the latest read since that write if
// any read since that write is not its sync ancestor.
func (m *refModel) raceAt(re *refEvent) *Race {
	e := re.ev
	if e.Kind != event.KindRead && e.Kind != event.KindWrite {
		return nil
	}
	lastW, lastR, readRaces := -1, -1, false
	for j, a := range m.evs {
		if a.ev.Obj != e.Obj {
			continue
		}
		switch a.ev.Kind {
		case event.KindWrite:
			lastW, lastR, readRaces = j, -1, false
		case event.KindRead:
			lastR = j
			readRaces = readRaces || !re.anc[refSync].has(j)
		}
	}
	switch {
	case lastW >= 0 && !re.anc[refSync].has(lastW):
		return &Race{Var: e.Obj, Access: e, Prev: m.evs[lastW].ev}
	case e.Kind == event.KindWrite && readRaces:
		return &Race{Var: e.Obj, Access: e, Prev: m.evs[lastR].ev}
	}
	return nil
}

func (m *refModel) truncate(n int) { m.evs = m.evs[:n] }

// threadClock returns the relation-r clock thread t's next event
// starts from: its last event's clock, or its spawn's if it has not
// run since being spawned, or bottom.
func (m *refModel) threadClock(t event.ThreadID, r int) vclock.VC {
	for i := len(m.evs) - 1; i >= 0; i-- {
		e := m.evs[i].ev
		if e.Thread == t || e.Kind == event.KindSpawn && event.ThreadID(e.Obj) == t {
			return m.evs[i].clk[r]
		}
	}
	return vclock.New(refThreads)
}

// refLabelHash is labelHash written as the byte-at-a-time FNV-1a it
// is defined as.
func refLabelHash(e event.Event) uint64 {
	h := uint64(14695981039346656037)
	bytes := func(x uint32) {
		for k := 0; k < 4; k++ {
			h = (h ^ uint64(byte(x>>(8*k)))) * 1099511628211
		}
	}
	bytes(uint32(e.Thread))
	bytes(uint32(e.Index))
	h = (h ^ uint64(e.Kind)) * 1099511628211
	bytes(uint32(e.Obj))
	switch e.Kind {
	case event.KindWrite, event.KindAssert, event.KindPanic, event.KindSend, event.KindSelect:
		bytes(uint32(uint64(e.Val)))
		bytes(uint32(uint64(e.Val) >> 32))
	}
	return h
}

func (m *refModel) fingerprints() (hbFP, lazyFP Fingerprint) {
	for _, re := range m.evs {
		lbl := refLabelHash(re.ev)
		hbFP.Add(lbl ^ mix64(re.clk[refHB].Hash()))
		lazyFP.Add(lbl ^ mix64(re.clk[refLazy].Hash()))
	}
	return hbFP, lazyFP
}

func (m *refModel) races() []Race {
	var out []Race
	for _, re := range m.evs {
		if re.race != nil {
			out = append(out, *re.race)
		}
	}
	return out
}

// refGen decodes fuzz bytes into a well-formed event sequence: thread
// 0 runs from the start, other threads run once spawned and stop once
// finished, a finished thread is joined at most once, a mutex is
// locked only when free and unlocked only by its holder, and a
// channel is closed at most once and never sent on after its close.
type refGen struct {
	idx      [refThreads]int32
	spawned  [refThreads]bool
	finished [refThreads]bool
	joined   [refThreads]bool
	holder   [refMutexes]int8
	closed   [refChans]bool
}

func newRefGen() refGen {
	g := refGen{}
	g.spawned[0] = true
	for i := range g.holder {
		g.holder[i] = -1
	}
	return g
}

// next decodes one event from op and arg; ok is false when op only
// finished a thread.
func (g *refGen) next(op, arg byte) (e event.Event, ok bool) {
	var run []event.ThreadID
	for t := range g.idx {
		if g.spawned[t] && !g.finished[t] {
			run = append(run, event.ThreadID(t))
		}
	}
	t := run[int(arg)%len(run)]
	obj := int32(arg>>2) % 3
	pick := func(want func(int) bool, n int) int {
		for k := 0; k < n; k++ {
			if c := (int(arg>>2) + k) % n; want(c) {
				return c
			}
		}
		return -1
	}
	var o event.Op
	switch op % 12 {
	case 0, 1:
		o = event.Op{Kind: event.KindRead, Obj: obj % refVars}
	case 2, 3:
		o = event.Op{Kind: event.KindWrite, Obj: obj % refVars, Val: int64(arg >> 5)}
	case 4:
		if mu := pick(func(c int) bool { return g.holder[c] < 0 }, refMutexes); mu >= 0 {
			g.holder[mu] = int8(t)
			o = event.Op{Kind: event.KindLock, Obj: int32(mu)}
		}
	case 5:
		if mu := pick(func(c int) bool { return g.holder[c] == int8(t) }, refMutexes); mu >= 0 {
			g.holder[mu] = -1
			o = event.Op{Kind: event.KindUnlock, Obj: int32(mu)}
		}
	case 6:
		if c := pick(func(c int) bool { return !g.spawned[c] }, refThreads); c >= 0 {
			g.spawned[c] = true
			o = event.Op{Kind: event.KindSpawn, Obj: int32(c)}
		}
	case 7:
		if c := pick(func(c int) bool { return g.finished[c] && !g.joined[c] && c != int(t) }, refThreads); c >= 0 {
			g.joined[c] = true
			o = event.Op{Kind: event.KindJoin, Obj: int32(c)}
		}
	case 8:
		if t != 0 && pick(func(c int) bool { return g.holder[c] == int8(t) }, refMutexes) < 0 {
			g.finished[t] = true
			return event.Event{}, false
		}
	case 9:
		if c := obj % refChans; !g.closed[c] {
			o = event.Op{Kind: event.KindSend, Obj: c, Val: int64(arg >> 5)}
		} else {
			o = event.Op{Kind: event.KindRecv, Obj: c}
		}
	case 10:
		if c := obj % refChans; arg&0x80 != 0 && !g.closed[c] {
			g.closed[c] = true
			o = event.Op{Kind: event.KindClose, Obj: c}
		} else {
			o = event.Op{Kind: event.KindRecv, Obj: c}
		}
	case 11:
		o = event.Op{Kind: event.KindSelect, Obj: -1, Val: 1 + int64(arg>>2)%(1<<refChans-1)}
	}
	if o.Kind == 0 { // the chosen operation was not allowed here
		o = event.Op{Kind: event.KindRead, Obj: obj % refVars}
	}
	e = event.Event{Thread: t, Index: g.idx[t], Op: o}
	g.idx[t]++
	return e, true
}

// refStats counts what one reference check exercised.
type refStats struct {
	kinds                 [event.KindSelect + 1]bool
	races, undos, applies int
}

// appliedClocks is an Apply result with the clocks it must keep, also
// after rewinds past its event.
type appliedClocks struct {
	ev       event.Event
	got      Clocks
	hb, lazy vclock.VC
}

// checkAgainstReference drives a tracker with undo enabled through the
// sequence data decodes, checking it against refModel after every
// Apply and every UndoTo. Each input is consumed two bytes at a time:
// an op byte (low nibble 15 rewinds to the mark the next byte picks;
// otherwise the nibble names the operation, and bits 4 and 5 both set
// take the event through Apply rather than ApplyFast) and an argument
// byte.
func checkAgainstReference(t *testing.T, data []byte) refStats {
	var st refStats
	tr := NewTrackerChans(refThreads, refVars, refMutexes, refChans)
	tr.EnableUndo()
	var m refModel
	gens := []refGen{newRefGen()} // gens[k]: generator state after k events
	var applied []appliedClocks   // every Apply result so far
	check := func(where string) {
		t.Helper()
		hbFP, lazyFP := m.fingerprints()
		if tr.HBFingerprint() != hbFP || tr.LazyFingerprint() != lazyFP {
			t.Fatalf("%s: fingerprints %v/%v, want %v/%v", where, tr.HBFingerprint(), tr.LazyFingerprint(), hbFP, lazyFP)
		}
		if got, want := tr.Races(), m.races(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: races %v, want %v", where, got, want)
		}
		if tr.Events() != len(m.evs) || tr.UndoMark() != len(m.evs) {
			t.Fatalf("%s: %d events, undo mark %d, want %d", where, tr.Events(), tr.UndoMark(), len(m.evs))
		}
		for th := event.ThreadID(0); th < refThreads; th++ {
			if got, want := tr.ThreadClock(th), m.threadClock(th, refHB); !got.Equal(want) {
				t.Fatalf("%s: thread %d hb clock %v, want %v", where, th, got, want)
			}
			if got, want := tr.LazyThreadClock(th), m.threadClock(th, refLazy); !got.Equal(want) {
				t.Fatalf("%s: thread %d lazy clock %v, want %v", where, th, got, want)
			}
		}
		for _, a := range applied {
			if !reflect.DeepEqual(a.got.HB, a.hb) || !reflect.DeepEqual(a.got.Lazy, a.lazy) {
				t.Fatalf("%s: clocks Apply returned for %v changed to %v/%v, want %v/%v",
					where, a.ev, a.got.HB, a.got.Lazy, a.hb, a.lazy)
			}
		}
	}
	for len(data) >= 2 {
		op, arg := data[0], data[1]
		data = data[2:]
		if op&0xf == 15 {
			mark := int(arg) % (len(m.evs) + 1)
			tr.UndoTo(mark)
			m.truncate(mark)
			gens = gens[:mark+1]
			check("after UndoTo")
			st.undos++
			continue
		}
		if len(m.evs) == refMaxEvents {
			break
		}
		g := gens[len(gens)-1]
		e, ok := g.next(op&0xf, arg)
		if !ok { // a thread finished: no event
			gens[len(gens)-1] = g
			continue
		}
		m.add(e)
		gens = append(gens, g)
		i := len(m.evs) - 1
		hb, lazy := m.evs[i].clk[refHB], m.evs[i].clk[refLazy]
		if op&0x30 == 0x30 {
			applied = append(applied, appliedClocks{ev: e, got: tr.Apply(e), hb: hb, lazy: lazy})
			st.applies++
		} else {
			tr.ApplyFast(e)
		}
		if got := tr.ThreadClock(e.Thread); !got.Equal(hb) {
			t.Fatalf("event %d %v: hb clock %v, want %v", i, e, got, hb)
		}
		if got := tr.LazyThreadClock(e.Thread); !got.Equal(lazy) {
			t.Fatalf("event %d %v: lazy clock %v, want %v", i, e, got, lazy)
		}
		check("after Apply")
		st.kinds[e.Kind] = true
		if m.evs[i].race != nil {
			st.races++
		}
	}
	return st
}

// FuzzTrackerReference checks the tracker against the explicit
// edge-set reference on fuzzed well-formed event sequences with
// interleaved rewinds.
func FuzzTrackerReference(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+rng.Intn(192))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// TestTrackerReferenceRandom runs the reference check over seeded
// random inputs, so every plain test run covers it.
func TestTrackerReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 300
	if testing.Short() {
		n = 60
	}
	var all refStats
	for i := 0; i < n; i++ {
		b := make([]byte, 2*(1+rng.Intn(160)))
		rng.Read(b)
		st := checkAgainstReference(t, b)
		for k, seen := range st.kinds {
			all.kinds[k] = all.kinds[k] || seen
		}
		all.races += st.races
		all.undos += st.undos
		all.applies += st.applies
	}
	for _, k := range []event.Kind{event.KindRead, event.KindWrite, event.KindLock, event.KindUnlock,
		event.KindSpawn, event.KindJoin, event.KindSend, event.KindRecv, event.KindClose, event.KindSelect} {
		if !all.kinds[k] {
			t.Errorf("no input produced a %v event", k)
		}
	}
	if all.races == 0 || all.undos == 0 || all.applies == 0 {
		t.Errorf("inputs exercised %d races, %d rewinds, %d Apply calls; want each > 0", all.races, all.undos, all.applies)
	}
	t.Logf("%d races, %d rewinds, %d Apply calls", all.races, all.undos, all.applies)
}

// TestHashPairMatchesVCHash: the two-chain hash equals vclock.VC.Hash
// on both clocks, trailing zeros, zero clocks and full 32-bit
// components included.
func TestHashPairMatchesVCHash(t *testing.T) {
	gen := func(rng *rand.Rand, n int) vclock.VC {
		c := vclock.New(n)
		for i := range c {
			switch rng.Intn(6) {
			case 0, 1:
			case 2:
				c[i] = int32(rng.Intn(256))
			case 3:
				c[i] = int32(rng.Intn(1 << 16))
			case 4:
				c[i] = int32(rng.Intn(1 << 24))
			default:
				c[i] = int32(rng.Uint32())
			}
		}
		if n > 0 && rng.Intn(2) == 0 { // a zero tail
			clear(c[rng.Intn(n):])
		}
		return c
	}
	f := func(seed int64, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(width % 12)
		a, b := gen(rng, n), gen(rng, n)
		ha, hb := hashPair(a, b)
		return ha == a.Hash() && hb == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelHashMatchesBytewise: labelHash's collapsed zero-byte steps
// give the byte-at-a-time FNV-1a value.
func TestLabelHashMatchesBytewise(t *testing.T) {
	f := func(th, idx uint16, kind uint8, obj int32, val int64, small bool) bool {
		e := event.Event{Thread: event.ThreadID(th), Index: int32(idx), Op: event.Op{Kind: event.Kind(kind % 16), Obj: obj, Val: val}}
		if small {
			e.Obj, e.Val = e.Obj&0xff, e.Val&0xffff
		}
		return labelHash(e) == refLabelHash(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
