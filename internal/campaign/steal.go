// Work-stealing parallel DPOR: the coordinator behind ParallelDPOR.
//
// Splitting the schedule tree into a fixed frontier of prefixes and
// enumerating that frontier exhaustively would forfeit the
// partial-order reduction across the partition layer; instead the
// work-stealing scheme lets one DPOR search span all workers. Work is
// exchanged as *units* (explore.Unit: a pinned choice prefix plus its
// root sleep set) on a striped deque: busy engines donate pending
// backtrack branches when workers starve, and race reversals that
// escape a unit's prefix are claimed against a shared node table and
// become new units instead of being re-enumerated. Every branch of the DPOR tree is claimed exactly
// once, so the merged counters equal sequential DPOR's (see
// explore.Steal for the argument, and parallel_test.go/steal_test.go
// for the pinned exactness).
package campaign

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/model"
)

// prefixKey renders a unit prefix as a map key (one byte per choice;
// explore.MaxThreads bounds thread IDs well below 256). Lexicographic
// order on keys equals lexicographic order on prefixes, which is what
// makes the merged result deterministic.
func prefixKey(prefix []event.ThreadID) string {
	b := make([]byte, len(prefix))
	for i, t := range prefix {
		b[i] = byte(t)
	}
	return string(b)
}

// stealStripe is one worker's segment of the steal deque. The pad
// brings the struct to 64 bytes (8 mutex + 24 slice header + 32) so
// adjacent stripes never share a cache line.
type stealStripe struct {
	mu    sync.Mutex
	units []*explore.Unit
	_     [32]byte
}

// stealQueue is the striped deque work-stealing units travel on, plus
// the termination and starvation accounting. A worker pushes and pops
// its own stripe LIFO (freshest, cache-warm subtrees first) and steals
// the oldest unit of another stripe (shallowest prefix, so the biggest
// subtree moves).
type stealQueue struct {
	stripes []stealStripe

	// outstanding counts units pushed but not yet fully processed.
	// It is incremented before a unit becomes visible and decremented
	// only after the unit's engine returned and its result was
	// recorded, so it can only reach zero when no unit is running and
	// none is queued — any unit a running engine might still push
	// keeps its creator's own count above zero.
	outstanding atomic.Int64

	// starving counts workers currently spinning for work; queued
	// counts units sitting in stripes. Engines poll both (through
	// workerHooks.Starving) and donate only while demand exceeds
	// stock — otherwise donated units just pile up on the donor's own
	// stripe and get re-popped by the donor at full unit-restart cost.
	starving atomic.Int64
	queued   atomic.Int64

	pushed atomic.Int64
	stolen atomic.Int64
}

func newStealQueue(workers int) *stealQueue {
	return &stealQueue{stripes: make([]stealStripe, workers)}
}

// push makes u available, crediting it to worker w's stripe. The
// outstanding increment happens before the unit is visible.
func (q *stealQueue) push(w int, u *explore.Unit) {
	q.outstanding.Add(1)
	q.pushed.Add(1)
	q.queued.Add(1)
	s := &q.stripes[w]
	s.mu.Lock()
	s.units = append(s.units, u)
	s.mu.Unlock()
}

// tryPop returns a unit for worker w, or nil when every stripe is
// empty: w's own stripe LIFO first, then a FIFO steal sweep over the
// other stripes.
func (q *stealQueue) tryPop(w int) *explore.Unit {
	own := &q.stripes[w]
	own.mu.Lock()
	if n := len(own.units); n > 0 {
		u := own.units[n-1]
		own.units[n-1] = nil
		own.units = own.units[:n-1]
		own.mu.Unlock()
		q.queued.Add(-1)
		return u
	}
	own.mu.Unlock()
	for i := 1; i < len(q.stripes); i++ {
		s := &q.stripes[(w+i)%len(q.stripes)]
		s.mu.Lock()
		if len(s.units) > 0 {
			u := s.units[0]
			copy(s.units, s.units[1:])
			s.units[len(s.units)-1] = nil
			s.units = s.units[:len(s.units)-1]
			s.mu.Unlock()
			q.queued.Add(-1)
			q.stolen.Add(1)
			return u
		}
		s.mu.Unlock()
	}
	return nil
}

// next blocks until a unit is available for worker w or the search has
// terminated (outstanding hit zero), spinning with escalating
// politeness while other workers still hold units.
func (q *stealQueue) next(w int) *explore.Unit {
	if u := q.tryPop(w); u != nil {
		return u
	}
	q.starving.Add(1)
	defer q.starving.Add(-1)
	sleep := 20 * time.Microsecond
	for spins := 0; ; spins++ {
		if u := q.tryPop(w); u != nil {
			return u
		}
		if q.outstanding.Load() == 0 {
			return nil
		}
		if spins < 64 {
			runtime.Gosched()
			continue
		}
		// Exponentially backed-off sleep, capped at 1ms: a worker
		// starving through one long-tail unit must not burn the CPU
		// that concurrently running campaign cells need.
		time.Sleep(sleep)
		if sleep < time.Millisecond {
			sleep *= 2
		}
	}
}

// complete retires one unit; the matching push happened when the unit
// was created.
func (q *stealQueue) complete() { q.outstanding.Add(-1) }

// nodeShards stripes the node table; node keys hash uniformly enough
// with FNV.
const nodeShards = 64

// nodeEntry is one published node's table state: the monotone claim
// set, plus the node's sleep-set context (write-once at publish, read
// without the shard lock afterwards — only done mutates under it).
type nodeEntry struct {
	done uint64
	// Sleep-set context copied from the publisher's explore.NodeInfo;
	// zero/nil when the search runs without sleep sets.
	sleep   uint64
	pendSet uint64
	pend    []event.Op
}

// nodeTable is the shared claim registry of published schedule-tree
// nodes: done[t] means branch t of the node has been (or is being)
// explored by some unit. Escaped backtrack additions claim against it,
// so each branch is explored exactly once globally.
type nodeTable struct {
	shards [nodeShards]struct {
		mu sync.Mutex
		m  map[string]*nodeEntry
	}
}

func newNodeTable() *nodeTable {
	t := &nodeTable{}
	for i := range t.shards {
		t.shards[i].m = map[string]*nodeEntry{}
	}
	return t
}

func (t *nodeTable) shard(key string) *struct {
	mu sync.Mutex
	m  map[string]*nodeEntry
} {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return &t.shards[h%nodeShards]
}

// publish registers the node with the given claimed set and claims the
// pending branches on top, returning the pending branches that were
// actually fresh plus the node's entry (with the claim set as it stood
// before this call folded in). By the publish-before-ship invariant
// each key is published exactly once and escapes only target published
// keys, so prior is zero here and fresh == pending; the dedup is kept
// as a cheap safety net should that invariant ever break. info's Pend
// view is copied.
func (t *nodeTable) publish(key string, claimed, pending uint64, info *explore.NodeInfo) (fresh, prior uint64, e *nodeEntry) {
	s := t.shard(key)
	s.mu.Lock()
	e = s.m[key]
	if e == nil {
		e = &nodeEntry{}
		s.m[key] = e
	}
	prior = e.done
	fresh = pending &^ prior
	e.done = prior | claimed | pending
	if info != nil && e.pendSet == 0 {
		e.sleep = info.Sleep
		e.pendSet = info.PendSet
		e.pend = append([]event.Op(nil), info.Pend...)
	}
	s.mu.Unlock()
	return fresh, prior, e
}

// claim marks cands as taken and returns the subset that was fresh
// plus the claim set as it stood before the call and the node's entry.
// The node must have been published — an escape can only target a
// node some unit's prefix runs through, and every unit's proper
// prefixes are published before the unit exists.
func (t *nodeTable) claim(key string, cands uint64) (fresh, prior uint64, e *nodeEntry) {
	s := t.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		panic("campaign: escaped backtrack point targets an unpublished node")
	}
	prior = e.done
	fresh = cands &^ prior
	e.done = prior | cands
	s.mu.Unlock()
	return fresh, prior, e
}

// sharedHooks is the per-search coordinator state shared by every
// worker's hooks.
type sharedHooks struct {
	q           *stealQueue
	table       *nodeTable
	donated     atomic.Int64
	escaped     atomic.Int64
	localClaims atomic.Int64
	// ctr mirrors unit shipping into the search's live telemetry
	// (explore.Counters.StealSent/StealReceived); nil when the caller
	// armed no counters.
	ctr *explore.Counters
}

// workerHooks is one worker's explore.Steal implementation; all
// callbacks run on that worker's engine goroutine.
type workerHooks struct {
	*sharedHooks
	worker int
}

// forceDonate, set by tests before a search starts, makes every worker
// report starvation so donation — and with it the unit-shipping paths
// (sleep seeds, escapes into foreign prefixes) — fires at every
// opportunity. With one worker the resulting search is fully
// deterministic, which is what the shipping exactness tests pin.
var forceDonate bool

// Starving implements explore.Steal: donate only while spinning
// workers outnumber the units already queued.
func (h workerHooks) Starving() bool {
	return forceDonate || h.q.starving.Load() > h.q.queued.Load()
}

// unitSleep derives the root sleep set of a unit that takes branch t
// from the published node e while done holds the branches claimed
// before t — the sequential child-node rule: a thread in
// sleep ∪ (done ∖ {t}) stays asleep iff its pending operation at the
// node is independent of the operation t executes there. Zero when the
// node carries no sleep context (sleep sets off).
func unitSleep(e *nodeEntry, done uint64, t event.ThreadID) uint64 {
	if e == nil || e.pendSet == 0 || e.pendSet&(1<<uint(t)) == 0 {
		return 0
	}
	inherit := (e.sleep | (done &^ (1 << uint(t)))) & e.pendSet
	var s uint64
	for m := inherit; m != 0; m &= m - 1 {
		q := bits.TrailingZeros64(m)
		if !event.Dependent(e.pend[q], e.pend[t]) {
			s |= 1 << uint(q)
		}
	}
	return s
}

// ship creates one unit per set bit of fresh, branching the node
// prefix, and pushes them onto the worker's stripe. done holds the
// node's claim set before the first shipped branch; sleep seeds are
// derived as if the branches were explored in bit order, mirroring the
// sequential engine's ascending backtrack pops.
func (h workerHooks) ship(prefix []event.ThreadID, fresh, done uint64, e *nodeEntry, donated bool) {
	for fresh != 0 {
		t := event.ThreadID(bits.TrailingZeros64(fresh))
		fresh &= fresh - 1
		u := &explore.Unit{
			Prefix:    append(append([]event.ThreadID(nil), prefix...), t),
			SleepSeed: unitSleep(e, done, t),
		}
		done |= 1 << uint(t)
		if donated {
			h.donated.Add(1)
		} else {
			h.escaped.Add(1)
		}
		if h.ctr != nil {
			h.ctr.StealSent.Add(1)
		}
		h.q.push(h.worker, u)
	}
}

// Publish implements explore.Steal.
func (h workerHooks) Publish(prefix []event.ThreadID, claimed, pending uint64, info *explore.NodeInfo) uint64 {
	fresh, prior, e := h.table.publish(prefixKey(prefix), claimed, pending, info)
	h.ship(prefix, fresh, prior|claimed, e, true)
	return fresh
}

// Escape implements explore.Steal.
func (h workerHooks) Escape(prefix []event.ThreadID, cands uint64) {
	fresh, prior, e := h.table.claim(prefixKey(prefix), cands)
	h.ship(prefix, fresh, prior, e, false)
}

// Claim implements explore.Steal: grant the fresh branches to the
// calling engine for in-place exploration.
func (h workerHooks) Claim(prefix []event.ThreadID, cands uint64) uint64 {
	fresh, _, _ := h.table.claim(prefixKey(prefix), cands)
	if fresh != 0 {
		h.localClaims.Add(1)
	}
	return fresh
}

// unitOutcome pairs a unit's result with its prefix key for the
// deterministic (lexicographic) merge.
type unitOutcome struct {
	key string
	res explore.Result
}

// workStealDPOR runs one work-stealing DPOR search (with sleep sets
// when sleep is set) across workers (already normalised) and returns
// the per-unit outcomes (unsorted), the shared dedup and the execution
// stats.
func workStealDPOR(src model.Source, opt explore.Options, workers int, sleep bool) ([]unitOutcome, *explore.Dedup, explore.StealStats) {
	dedup := explore.NewDedup()
	budget := explore.NewBudget(opt.ScheduleLimit)

	unitOpt := opt
	unitOpt.ScheduleLimit = 0

	q := newStealQueue(workers)
	shared := &sharedHooks{q: q, table: newNodeTable(), ctr: opt.Counters}

	var mu sync.Mutex
	var outcomes []unitOutcome

	// The root unit: the whole tree. Its worker donates branches as
	// soon as the other workers report starvation.
	q.push(0, &explore.Unit{})

	// bugFound flips once any worker's unit captured a violation under
	// StopAtFirstBug: units already running stop at their own first
	// bug, queued units drain as no-ops so the search winds down fast.
	var bugFound atomic.Bool

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hooks := workerHooks{sharedHooks: shared, worker: w}
			for {
				u := q.next(w)
				if u == nil {
					return
				}
				var res explore.Result
				switch {
				case opt.StopAtFirstBug && bugFound.Load():
					res = explore.Result{}
				case budget != nil && budget.Exhausted():
					res = explore.Result{HitLimit: true}
				case unitOpt.Ctx != nil && unitOpt.Ctx.Err() != nil:
					res = explore.Result{Interrupted: true}
				default:
					if shared.ctr != nil && len(u.Prefix) > 0 {
						// Shipped (non-root) units a worker picks up.
						shared.ctr.StealReceived.Add(1)
					}
					unit := *u
					unit.Steal, unit.Dedup, unit.Budget = hooks, dedup, budget
					res = explore.ExploreDPORUnit(src, unitOpt, sleep, unit)
					if opt.StopAtFirstBug && res.ViolationKind != "" {
						bugFound.Store(true)
					}
				}
				mu.Lock()
				outcomes = append(outcomes, unitOutcome{key: prefixKey(u.Prefix), res: res})
				mu.Unlock()
				q.complete()
			}
		}(w)
	}
	wg.Wait()

	stats := explore.StealStats{
		Workers:     workers,
		Units:       int(q.pushed.Load()),
		Donated:     int(shared.donated.Load()),
		Escaped:     int(shared.escaped.Load()),
		LocalClaims: int(shared.localClaims.Load()),
		Steals:      int(q.stolen.Load()),
	}
	return outcomes, dedup, stats
}
