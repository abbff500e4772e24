package explore

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hb"
	"repro/internal/model"
)

// numStripes is the stripe count of stripedSet. Power of two so the
// modulo compiles to a mask; 64 stripes keep contention negligible at
// any realistic worker count.
const numStripes = 64

// stripedSet is a lock-striped set with exact cardinality, safe for
// concurrent use by many exploration workers. The caller picks the
// stripe from a uniformly distributed hash of the key.
type stripedSet[K comparable] struct {
	stripes [numStripes]struct {
		mu sync.Mutex
		m  map[K]struct{}
	}
	n atomic.Int64
}

// add inserts k into the stripe shard selects and reports whether it
// was absent.
func (s *stripedSet[K]) add(k K, shard uint64) bool {
	st := &s.stripes[shard%numStripes]
	st.mu.Lock()
	if st.m == nil {
		st.m = map[K]struct{}{}
	}
	fresh := addKey(st.m, k)
	st.mu.Unlock()
	if fresh {
		s.n.Add(1)
	}
	return fresh
}

func (s *stripedSet[K]) len() int { return int(s.n.Load()) }

func (s *stripedSet[K]) keys() []K {
	var out []K
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for k := range st.m {
			out = append(out, k)
		}
		st.mu.Unlock()
	}
	return out
}

// dedupSink abstracts the recorder's distinctness sets: localDedup
// for engine-local runs, the lock-striped Dedup when shared between
// workers. States deduplicate on binary digests; the string key of a
// state is rendered and recorded (RecordStateKey) only for fresh
// digests and only under Options.RecordStates.
type dedupSink interface {
	AddHBR(fp hb.Fingerprint) bool
	AddLazy(fp hb.Fingerprint) bool
	AddState(sig model.StateSig) bool
	RecordStateKey(key string)
	SortedStates() []string
}

// localDedup is the plain, single-goroutine sink — three map inserts
// per terminal, no striping or atomics on the sequential hot path.
type localDedup struct {
	hbrs, lazies map[hb.Fingerprint]struct{}
	states       map[model.StateSig]struct{}
	stateKeys    []string
}

func newLocalDedup() *localDedup {
	return &localDedup{
		hbrs:   map[hb.Fingerprint]struct{}{},
		lazies: map[hb.Fingerprint]struct{}{},
		states: map[model.StateSig]struct{}{},
	}
}

func addKey[K comparable](m map[K]struct{}, k K) bool {
	if _, dup := m[k]; dup {
		return false
	}
	m[k] = struct{}{}
	return true
}

func (d *localDedup) AddHBR(fp hb.Fingerprint) bool    { return addKey(d.hbrs, fp) }
func (d *localDedup) AddLazy(fp hb.Fingerprint) bool   { return addKey(d.lazies, fp) }
func (d *localDedup) AddState(sig model.StateSig) bool { return addKey(d.states, sig) }
func (d *localDedup) RecordStateKey(key string)        { d.stateKeys = append(d.stateKeys, key) }

func (d *localDedup) SortedStates() []string {
	out := append([]string(nil), d.stateKeys...)
	sort.Strings(out)
	return out
}

// Dedup holds the distinctness sets behind a Result's #HBRs,
// #lazy HBRs and #states counters. A Dedup shared between concurrently
// running engine instances (via Options.Dedup) makes the merged counts
// exact: each terminal execution is attributed to exactly one worker,
// and the sets deduplicate globally. States deduplicate on 128-bit
// binary digests; the human-readable key set is populated only under
// Options.RecordStates. Fingerprints and digests are already uniformly
// distributed hashes, so their low word picks the stripe directly.
type Dedup struct {
	hbrs, lazies stripedSet[hb.Fingerprint]
	states       stripedSet[model.StateSig]
	keys         stripedSet[string]
}

// NewDedup returns an empty shared distinctness tracker.
func NewDedup() *Dedup { return &Dedup{} }

// AddHBR, AddLazy and AddState insert into the respective set and
// report freshness.
func (d *Dedup) AddHBR(fp hb.Fingerprint) bool    { return d.hbrs.add(fp, fp[0]) }
func (d *Dedup) AddLazy(fp hb.Fingerprint) bool   { return d.lazies.add(fp, fp[0]) }
func (d *Dedup) AddState(sig model.StateSig) bool { return d.states.add(sig, sig[0]) }

// RecordStateKey stores the rendered key of a state whose digest was
// fresh; exactly one worker records each distinct state. The key's
// FNV-1a hash picks its stripe.
func (d *Dedup) RecordStateKey(key string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	d.keys.add(key, h)
}

// Counts returns the exact current cardinalities (hbrs, lazies,
// states).
func (d *Dedup) Counts() (int, int, int) {
	return d.hbrs.len(), d.lazies.len(), d.states.len()
}

// SortedStates returns the distinct terminal state keys recorded under
// RecordStates, sorted.
func (d *Dedup) SortedStates() []string {
	out := d.keys.keys()
	sort.Strings(out)
	return out
}

// Budget is a schedule budget shared between concurrently running
// engine instances: the parallel analogue of Options.ScheduleLimit.
// Each completed execution consumes one token; the execution that
// drains the last token stops its engine with HitLimit set, matching
// the sequential `schedules >= limit` exit. Because the token is
// taken after the execution ran, concurrent workers can overrun the
// limit by at most workers−1 schedules.
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
