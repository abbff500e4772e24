package explore

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hb"
	"repro/internal/model"
)

// digestSet is an insert-only set of 128-bit digests (HBR fingerprints
// and state digests): linear probing over a flat power-of-two table,
// one probe sequence per add. The digests are already uniform hashes,
// so the home slot is the top bits of k[0] times the 64-bit golden
// ratio (Fibonacci hashing; the multiply also spreads FNV-1a's weak
// low bits). The table doubles before an insert would take it past
// 7/8 load, from a minimum of 8 slots. An all-zero slot is empty, so
// the all-zero digest is kept in its own flag.
type digestSet struct {
	slots [][2]uint64
	shift uint // 64 - log2(len(slots))
	n     int  // non-zero digests in slots
	zero  bool
}

const minDigestSlots = 8 // the smallest digestSet table

// home is k's first probe slot.
func (s *digestSet) home(k [2]uint64) int { return int((k[0] * 0x9e3779b97f4a7c15) >> s.shift) }

// add inserts k and reports whether it was absent.
func (s *digestSet) add(k [2]uint64) bool {
	if k == ([2]uint64{}) {
		fresh := !s.zero
		s.zero = true
		return fresh
	}
	if s.slots == nil {
		s.resize(minDigestSlots)
	}
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case [2]uint64{}:
			if s.n+1 > len(s.slots)-len(s.slots)/8 {
				s.resize(2 * len(s.slots))
				s.insert(k)
			} else {
				s.slots[i] = k
			}
			s.n++
			return true
		}
	}
}

// insert places a non-zero k known to be absent.
func (s *digestSet) insert(k [2]uint64) {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != ([2]uint64{}) {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}

// resize rehashes the set into a table of size slots (a power of two).
func (s *digestSet) resize(size int) {
	old := s.slots
	s.slots = make([][2]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != ([2]uint64{}) {
			s.insert(k)
		}
	}
}

// len returns the number of distinct digests added.
func (s *digestSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// numStripes is the stripe count of stripedSet. Power of two so the
// modulo compiles to a mask; 64 stripes keep contention negligible at
// any realistic worker count.
const numStripes = 64

// stripedSet is a lock-striped digestSet with exact cardinality, safe
// for concurrent use by many exploration workers. The low bits of k[0]
// pick the stripe; the stripe's table hashes the product's top bits.
type stripedSet struct {
	stripes [numStripes]struct {
		mu  sync.Mutex
		set digestSet
	}
	n atomic.Int64
}

// add inserts k and reports whether it was absent.
func (s *stripedSet) add(k [2]uint64) bool {
	st := &s.stripes[k[0]%numStripes]
	st.mu.Lock()
	fresh := st.set.add(k)
	st.mu.Unlock()
	if fresh {
		s.n.Add(1)
	}
	return fresh
}

func (s *stripedSet) len() int { return int(s.n.Load()) }

// dedupSink abstracts the recorder's distinctness sets: localDedup
// for engine-local runs, the lock-striped Dedup a work-stealing unit
// shares with its siblings (Unit.Dedup). States deduplicate on binary
// digests; the string key of a state is rendered and recorded
// (RecordStateKey) only for fresh digests and only under
// Options.RecordStates.
type dedupSink interface {
	AddHBR(fp hb.Fingerprint) bool
	AddLazy(fp hb.Fingerprint) bool
	AddState(sig model.StateSig) bool
	RecordStateKey(key string)
}

// localDedup is the plain, single-goroutine sink — three digestSet
// inserts per terminal, no striping or atomics on the sequential hot
// path.
type localDedup struct {
	hbrs, lazies, states digestSet
	stateKeys            []string
}

func (d *localDedup) AddHBR(fp hb.Fingerprint) bool    { return d.hbrs.add(fp) }
func (d *localDedup) AddLazy(fp hb.Fingerprint) bool   { return d.lazies.add(fp) }
func (d *localDedup) AddState(sig model.StateSig) bool { return d.states.add(sig) }
func (d *localDedup) RecordStateKey(key string)        { d.stateKeys = append(d.stateKeys, key) }

func (d *localDedup) SortedStates() []string {
	out := append([]string(nil), d.stateKeys...)
	sort.Strings(out)
	return out
}

// Dedup holds the distinctness sets behind a Result's #HBRs,
// #lazy HBRs and #states counters. A Dedup shared between concurrently
// running work-stealing units (via Unit.Dedup) makes the merged counts
// exact: each terminal execution is attributed to exactly one worker,
// and the sets deduplicate globally. States deduplicate on 128-bit
// binary digests; the human-readable key set is populated only under
// Options.RecordStates.
type Dedup struct {
	hbrs, lazies, states stripedSet

	keysMu sync.Mutex
	keys   []string
}

// NewDedup returns an empty shared distinctness tracker.
func NewDedup() *Dedup { return &Dedup{} }

// AddHBR, AddLazy and AddState insert into the respective set and
// report freshness.
func (d *Dedup) AddHBR(fp hb.Fingerprint) bool    { return d.hbrs.add(fp) }
func (d *Dedup) AddLazy(fp hb.Fingerprint) bool   { return d.lazies.add(fp) }
func (d *Dedup) AddState(sig model.StateSig) bool { return d.states.add(sig) }

// RecordStateKey stores the rendered key of a state whose digest was
// fresh. AddState reports each digest fresh exactly once, so exactly
// one worker records each distinct state.
func (d *Dedup) RecordStateKey(key string) {
	d.keysMu.Lock()
	d.keys = append(d.keys, key)
	d.keysMu.Unlock()
}

// Counts returns the exact current cardinalities (hbrs, lazies,
// states).
func (d *Dedup) Counts() (int, int, int) {
	return d.hbrs.len(), d.lazies.len(), d.states.len()
}

// SortedStates returns the distinct terminal state keys recorded under
// RecordStates, sorted.
func (d *Dedup) SortedStates() []string {
	d.keysMu.Lock()
	out := append([]string(nil), d.keys...)
	d.keysMu.Unlock()
	sort.Strings(out)
	return out
}

// Budget is a schedule budget shared between concurrently running
// work-stealing units (via Unit.Budget): the parallel analogue of
// Options.ScheduleLimit. Each completed execution consumes one token;
// the execution that drains the last token stops its engine with
// HitLimit set, matching the sequential `schedules >= limit` exit.
// Because the token is taken after the execution ran, concurrent
// workers can overrun the limit by at most workers−1 schedules.
type Budget struct {
	remaining atomic.Int64
}

// NewBudget returns a budget of n schedules; n <= 0 means unlimited
// (returns nil, which every consumer treats as no budget).
func NewBudget(n int) *Budget {
	if n <= 0 {
		return nil
	}
	b := &Budget{}
	b.remaining.Store(int64(n))
	return b
}

// take consumes one token and reports whether tokens remain afterwards
// (false on the draining take, so the consumer stops like a sequential
// engine reaching its limit).
func (b *Budget) take() bool { return b.remaining.Add(-1) > 0 }

// Exhausted reports whether the budget has run out.
func (b *Budget) Exhausted() bool { return b.remaining.Load() <= 0 }
