package explore

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// TestCachingPrunesAcrossBranches: the cache is global across the DFS,
// so a prefix reached via a different interleaving with the same
// partial order is cut immediately.
func TestCachingPrunesAcrossBranches(t *testing.T) {
	// Two independent writers: both interleavings have the same HBR,
	// so regular caching completes the first schedule and prunes the
	// second after a single event.
	b := progdsl.New("indep").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(y, 1)
	res := NewHBRCache().Explore(b.Build(), Options{})
	if res.Terminals != 1 {
		t.Errorf("terminals = %d, want 1", res.Terminals)
	}
	if res.Pruned != 1 {
		t.Errorf("pruned = %d, want 1", res.Pruned)
	}
	if res.Schedules != 2 {
		t.Errorf("schedules = %d, want 2 (one complete + one pruned)", res.Schedules)
	}
}

// TestCachingDistinguishesConflicts: conflicting accesses have distinct
// HBRs in each order, so nothing is pruned and both schedules complete.
func TestCachingDistinguishesConflicts(t *testing.T) {
	b := progdsl.New("conflict").AutoStart()
	x := b.Var("x")
	b.Thread().WriteConst(x, 1)
	b.Thread().WriteConst(x, 2)
	res := NewHBRCache().Explore(b.Build(), Options{})
	if res.Terminals != 2 || res.Pruned != 0 {
		t.Errorf("terminals=%d pruned=%d, want 2/0", res.Terminals, res.Pruned)
	}
}

// TestLazyCachingPrunesMutexOrders: the defining difference — lock
// orders prune under the lazy relation but not under the regular one.
func TestLazyCachingPrunesMutexOrders(t *testing.T) {
	src := curatedDisjointLocks()
	reg := NewHBRCache().Explore(src, Options{})
	lazy := NewLazyHBRCache().Explore(src, Options{})
	if reg.Terminals != 2 {
		t.Errorf("regular caching completed %d, want 2 (one per lock order)", reg.Terminals)
	}
	if lazy.Terminals != 1 {
		t.Errorf("lazy caching completed %d, want 1", lazy.Terminals)
	}
	if lazy.Pruned == 0 {
		t.Error("lazy caching should have pruned the second lock order")
	}
}

// TestCachingScheduleAccounting: Schedules = Terminals + Pruned +
// Truncated on the caching engines.
func TestCachingScheduleAccounting(t *testing.T) {
	for _, src := range soundnessZoo() {
		for _, eng := range []Engine{NewHBRCache(), NewLazyHBRCache()} {
			res := eng.Explore(src, Options{MaxSteps: 2000})
			if res.Schedules != res.Terminals+res.Pruned+res.Truncated+res.SleepBlocked+res.Divergences {
				t.Errorf("%s on %s: %d ≠ %d+%d+%d+%d+%d", eng.Name(), src.Name(),
					res.Schedules, res.Terminals, res.Pruned, res.Truncated, res.SleepBlocked, res.Divergences)
			}
		}
	}
}

// TestCachingUnderTightLimit: with a budget of 1 the engines complete
// exactly one schedule and report the limit.
func TestCachingUnderTightLimit(t *testing.T) {
	src := curatedSharedCounter()
	for _, eng := range []Engine{NewHBRCache(), NewLazyHBRCache()} {
		res := eng.Explore(src, Options{ScheduleLimit: 1})
		if res.Schedules != 1 || !res.HitLimit || res.Terminals != 1 {
			t.Errorf("%s: %+v", eng.Name(), res)
		}
	}
}

// TestLazyCachingNeverBehindOnLazyClasses: within any identical budget,
// lazy caching reaches at least as many lazy HBR classes as regular
// caching — the Figure 3 guarantee — checked across random programs
// and several budgets.
func TestLazyCachingNeverBehindOnLazyClasses(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		src := genRandomProgram(seed)
		for _, limit := range []int{10, 50, 200} {
			reg := NewHBRCache().Explore(src, Options{ScheduleLimit: limit, MaxSteps: 2000})
			lazy := NewLazyHBRCache().Explore(src, Options{ScheduleLimit: limit, MaxSteps: 2000})
			if reg.DistinctLazyHBRs > lazy.DistinctLazyHBRs {
				t.Errorf("seed %d limit %d: regular caching reached %d lazy classes, lazy caching %d",
					seed, limit, reg.DistinctLazyHBRs, lazy.DistinctLazyHBRs)
			}
		}
	}
}

// TestCoarseTailFigure3Regime: the corpus family built for the Figure 3
// effect actually exhibits it at a binding budget.
func TestCoarseTailFigure3Regime(t *testing.T) {
	b := progdsl.New("tail").AutoStart()
	g := b.Mutex("g")
	own := b.VarArray("own", 3)
	s := b.Var("s")
	for i := 0; i < 3; i++ {
		i := i
		th := b.Thread()
		th.Lock(g)
		th.Read(0, own.At(i))
		th.AddConst(0, 0, 1)
		th.Write(own.At(i), 0)
		th.Unlock(g)
		th.Repeat(3, func(j int) { th.WriteConst(s, int64(i*10+j+1)) })
	}
	src := b.Build()
	const limit = 2000
	reg := NewHBRCache().Explore(src, Options{ScheduleLimit: limit})
	lazy := NewLazyHBRCache().Explore(src, Options{ScheduleLimit: limit})
	if !reg.HitLimit || !lazy.HitLimit {
		t.Fatalf("budget must bind: reg=%v lazy=%v", reg.HitLimit, lazy.HitLimit)
	}
	if lazy.DistinctLazyHBRs <= reg.DistinctLazyHBRs {
		t.Errorf("expected strict lazy-caching advantage: %d vs %d",
			lazy.DistinctLazyHBRs, reg.DistinctLazyHBRs)
	}
}

// dropEscapes is a Steal coordinator that never donates and drops
// every escaped backtrack point: a search split into one unit per root
// choice explores every sibling prefix anyway, so a reversal into the
// shared root is covered by another unit.
type dropEscapes struct{}

func (dropEscapes) Starving() bool                                  { return false }
func (dropEscapes) Publish([]event.ThreadID, uint64, uint64) uint64 { return 0 }
func (dropEscapes) Escape([]event.ThreadID, uint64)                 {}
func (dropEscapes) Claim([]event.ThreadID, uint64) uint64           { return 0 }

// TestCachingAcrossPrefixPartitions: the shared distinctness caches
// the campaign package builds on — DPOR units pinned to disjoint root
// prefixes, each pruning its own subtree and all deduplicating through
// one shared Dedup — must still cover every terminal state, lazy HBR
// class and HBR class of the exhaustive space.
func TestCachingAcrossPrefixPartitions(t *testing.T) {
	for _, src := range soundnessZoo()[:8] {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			want := exploreStates(t, NewDFS(), src)

			m := model.NewMachine(src)
			roots := m.EnabledThreads(nil)
			m.Abort()
			if len(roots) < 2 {
				t.Skipf("single root branch; nothing to partition")
			}

			dedup := NewDedup()
			var totalTerminals int
			for _, root := range roots {
				res := ExploreDPORUnit(src, Options{MaxSteps: 2000}, Unit{
					Prefix: []event.ThreadID{root},
					Steal:  dropEscapes{},
					Dedup:  dedup,
				})
				if res.HitLimit {
					t.Fatalf("partition %d unexpectedly hit a limit", root)
				}
				totalTerminals += res.Terminals
			}
			hbrs, lazies, states := dedup.Counts()
			if states != want.DistinctStates {
				t.Errorf("partitions covered %d states, exhaustive %d", states, want.DistinctStates)
			}
			if lazies != want.DistinctLazyHBRs {
				t.Errorf("partitions covered %d lazy classes, exhaustive %d", lazies, want.DistinctLazyHBRs)
			}
			if hbrs != want.DistinctHBRs {
				t.Errorf("partitions covered %d HBRs, exhaustive %d", hbrs, want.DistinctHBRs)
			}
			if totalTerminals < lazies {
				t.Errorf("partitions completed %d schedules, fewer than their %d lazy classes", totalTerminals, lazies)
			}
		})
	}
}

// TestCachingRetainedHeap bounds the live heap the caching engines'
// caches and distinctness sets hold at the end of a search on
// coarse-tail-3x3 (the same probe as perfbench's heapProbe: settle the
// heap as the search starts, settle it again at the final Observer
// delivery, keep the smallest of three runs). Go maps keyed by the
// 128-bit digests retained 515,616 B (hbr-caching) and 133,008 B
// (lazy-hbr-caching); the flat digestSet retains 318,944 B and
// 89,232 B. Not parallel: another test's garbage would leak into the
// measurement.
func TestCachingRetainedHeap(t *testing.T) {
	bm := benchProgram(t, "coarse-tail-3x3")
	for _, tc := range []struct {
		eng Engine
		max uint64
	}{
		{NewHBRCache(), 400_000},
		{NewLazyHBRCache(), 110_000},
	} {
		best := uint64(math.MaxUint64)
		for run := 0; run < 3; run++ {
			var added uint64
			start := settledHeap()
			opt := Options{ScheduleLimit: 10000, MaxSteps: 2000}
			opt.Observer = &Observer{
				EverySchedules: math.MaxInt,
				Every:          time.Duration(math.MaxInt64),
				OnProgress: func(Progress) {
					end := settledHeap()
					added = end - min(start, end)
				},
			}
			tc.eng.Explore(bm.Program, opt)
			best = min(best, added)
		}
		t.Logf("%s: %d B retained", tc.eng.Name(), best)
		if best > tc.max {
			t.Errorf("%s retains %d B at the end of its search, want ≤ %d", tc.eng.Name(), best, tc.max)
		}
	}
}

// settledHeap collects garbage twice and returns the live heap the
// last collection marked.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
