package campaign

import (
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// stealWorkerCounts is the worker grid the exactness contract is pinned
// at (the ISSUE's acceptance criterion).
var stealWorkerCounts = []int{1, 2, 4, 8}

// TestWorkStealDPORExact is the work-stealing engine's exactness
// contract: on exhausted spaces, every counter
// except Events — including #schedules — is byte-identical to
// sequential DPOR for both backends and every worker count: no branch
// of the DPOR tree is explored twice across unit boundaries.
func TestWorkStealDPORExact(t *testing.T) {
	for _, name := range exactBenches {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			for _, side := range backendSides(bm.Program) {
				opt := explore.Options{MaxSteps: 2000, RecordStates: true}
				seq := side.run(t, opt, explore.NewDPOR(false).Explore)
				if seq.HitLimit {
					t.Fatalf("sequential DPOR unexpectedly hit a limit")
				}
				for _, workers := range stealWorkerCounts {
					par := side.run(t, opt, func(src model.Source, opt explore.Options) explore.Result {
						return ParallelDPOR(src, opt, workers)
					})
					assertExact(t, workers, seq, par, true)
					if par.Steal == nil || par.Steal.Workers != workers {
						t.Errorf("backend=%s workers=%d: missing or wrong steal stats: %+v",
							side.backend, workers, par.Steal)
					}
				}
			}
		})
	}
}

// backendSide is one side of an undo-versus-replay comparison: a
// program as given, which the backtracking engines explore on the
// undo log, or wrapped in model.Opaque, which forces replay.
type backendSide struct {
	backend string
	src     model.Source
}

func backendSides(src model.Source) []backendSide {
	return []backendSide{{"undo", src}, {"replay", model.Opaque(src)}}
}

// run explores the side's program through a DPOR search fn under opt
// armed with fresh Counters, and checks that the search resolved to
// the side's backend, so a wrapper that leaked Snapshot could not
// quietly compare undo with undo.
func (s backendSide) run(t *testing.T, opt explore.Options, fn func(model.Source, explore.Options) explore.Result) explore.Result {
	t.Helper()
	opt.Counters = explore.NewCounters()
	res := fn(s.src, opt)
	if got := opt.Counters.Backend(); got != s.backend {
		t.Errorf("%s resolved to backend %q, want %q", res.Engine, got, s.backend)
	}
	return res
}

// TestWorkStealDPORForcedDonationExact extends the exactness
// contract to maximal fragmentation: even when every pending branch is
// donated as its own unit, the claim table keeps the merged counters —
// including #schedules — byte-identical to sequential DPOR.
func TestWorkStealDPORForcedDonationExact(t *testing.T) {
	forceDonate = true
	defer func() { forceDonate = false }()
	for _, name := range exactBenches {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			opt := explore.Options{MaxSteps: 2000, RecordStates: true}
			seq := explore.NewDPOR(false).Explore(bm.Program, opt)
			for _, workers := range stealWorkerCounts {
				par := ParallelDPOR(bm.Program, opt, workers)
				assertExact(t, workers, seq, par, true)
			}
		})
	}
}

// TestWorkStealDPORBudget: the shared budget stops the work-stealing
// search within workers−1 schedules of the limit, and a one-worker run
// reproduces the sequential limit exactly.
func TestWorkStealDPORBudget(t *testing.T) {
	bm := mustProgram(t, "synth-03") // 299 DPOR schedules: comfortably above the limit
	const limit, workers = 100, 4
	res := ParallelDPOR(bm.Program, explore.Options{ScheduleLimit: limit, MaxSteps: 2000}, workers)
	if !res.HitLimit {
		t.Fatalf("expected HitLimit on a %d-schedule budget", limit)
	}
	if res.Schedules < limit/2 || res.Schedules > limit+workers-1 {
		t.Fatalf("budgeted run executed %d schedules, want ≈%d (≤ limit+workers−1)", res.Schedules, limit)
	}
	solo := ParallelDPOR(bm.Program, explore.Options{ScheduleLimit: limit, MaxSteps: 2000}, 1)
	if solo.Schedules != limit || !solo.HitLimit {
		t.Fatalf("workers=1 budgeted run executed %d schedules (hitLimit=%v), want exactly %d",
			solo.Schedules, solo.HitLimit, limit)
	}
}

// TestWorkStealDPORFuzzCorpus extends the exactness contract from the
// fixed soundness zoo to generated programs: on every fuzz-corpus
// program whose space sequential DPOR exhausts, the work-stealing
// engine must report byte-identical counters at every worker count.
// The acceptance bar is ≥100 compared programs; inputs that decode to
// nothing or blow the probe budget are skipped, so the corpus is
// oversized.
func TestWorkStealDPORFuzzCorpus(t *testing.T) {
	corpus := progdsl.FuzzCorpus(140, 7)
	workerCounts := stealWorkerCounts
	if testing.Short() {
		corpus = corpus[:40]
		workerCounts = []int{1, 4}
	}
	compared := 0
	for i, data := range corpus {
		src := progdsl.FromBytes(progdsl.CorpusName("steal-fuzz", i), data)
		if src == nil {
			continue
		}
		opt := explore.Options{ScheduleLimit: 5000, MaxSteps: 500, RecordStates: true}
		seq := explore.NewDPOR(false).Explore(src, opt)
		if seq.HitLimit {
			continue
		}
		compared++
		for _, workers := range workerCounts {
			par := ParallelDPOR(src, opt, workers)
			assertExact(t, workers, seq, par, true)
			if t.Failed() {
				t.Fatalf("first divergence on corpus entry %d (bytes %v)", i, data)
			}
		}
	}
	min := 100
	if testing.Short() {
		min = 30
	}
	if compared < min {
		t.Errorf("only %d corpus programs were exhaustible and compared, want ≥ %d", compared, min)
	}
}

// TestStealQueueOrder pins the deque discipline: a worker pops its own
// stripe LIFO, steals other stripes FIFO, and termination requires
// every pushed unit to be completed.
func TestStealQueueOrder(t *testing.T) {
	q := newStealQueue(2)
	mk := func(ts ...event.ThreadID) *explore.Unit { return &explore.Unit{Prefix: ts} }
	q.push(0, mk(0))
	q.push(0, mk(1))
	q.push(0, mk(2))

	if u := q.tryPop(0); len(u.Prefix) != 1 || u.Prefix[0] != 2 {
		t.Fatalf("own-stripe pop is not LIFO: got %v", u.Prefix)
	}
	if u := q.tryPop(1); len(u.Prefix) != 1 || u.Prefix[0] != 0 {
		t.Fatalf("steal is not FIFO: got %v", u.Prefix)
	}
	if got := q.stolen.Load(); got != 1 {
		t.Fatalf("stolen counter = %d, want 1", got)
	}
	if u := q.tryPop(1); u.Prefix[0] != 1 {
		t.Fatalf("second steal got %v", u.Prefix)
	}
	if u := q.tryPop(0); u != nil {
		t.Fatalf("empty queue popped %v", u.Prefix)
	}
	q.complete()
	q.complete()
	q.complete()
	if q.outstanding.Load() != 0 {
		t.Fatalf("outstanding = %d after all completions", q.outstanding.Load())
	}
	// With outstanding at zero, next must terminate instead of spinning.
	if u := q.next(0); u != nil {
		t.Fatalf("next returned %v after termination", u.Prefix)
	}
}

// TestStealQueueRaceStress hammers the deque from GOMAXPROCS
// goroutines under the race detector: every pushed unit must be popped
// exactly once and termination detection must fire exactly when the
// last unit completes.
func TestStealQueueRaceStress(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 200
	q := newStealQueue(workers)
	// Seed one unit per worker; each popped unit spawns children until
	// its ID space is exhausted, mimicking donation.
	for w := 0; w < workers; w++ {
		q.push(w, &explore.Unit{Prefix: []event.ThreadID{event.ThreadID(w)}})
	}
	var popped atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				u := q.next(w)
				if u == nil {
					return
				}
				popped.add(1)
				if len(u.Prefix) < perWorker/50 {
					q.push(w, &explore.Unit{Prefix: append(append([]event.ThreadID(nil), u.Prefix...), 0)})
					q.push(w, &explore.Unit{Prefix: append(append([]event.ThreadID(nil), u.Prefix...), 1)})
				}
				q.complete()
			}
		}(w)
	}
	wg.Wait()
	if got := popped.load(); got != q.pushed.Load() {
		t.Fatalf("popped %d units, pushed %d", got, q.pushed.Load())
	}
	if q.outstanding.Load() != 0 {
		t.Fatalf("outstanding = %d after drain", q.outstanding.Load())
	}
}

// TestNodeTableClaims: publish/claim must hand out each branch exactly
// once under concurrent claiming.
func TestNodeTableClaims(t *testing.T) {
	tab := newNodeTable()
	key := prefixKey([]event.ThreadID{0, 1, 2})
	if fresh := tab.publish(key, 0b001, 0b110); fresh != 0b110 {
		t.Fatalf("publish returned fresh=%b, want 110", fresh)
	}
	if fresh := tab.claim(key, 0b111); fresh != 0 {
		t.Fatalf("claim of taken branches returned %b, want 0", fresh)
	}
	if fresh := tab.claim(key, 0b1011); fresh != 0b1000 {
		t.Fatalf("claim returned fresh=%b, want 1000", fresh)
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var granted atomic64
	tab.publish("shared", 0, 0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bit := 0; bit < 64; bit++ {
				fresh := tab.claim("shared", 1<<uint(bit))
				granted.add(int64(bits.OnesCount64(fresh)))
			}
		}()
	}
	wg.Wait()
	if granted.load() != 64 {
		t.Fatalf("concurrent claims granted %d branches, want 64", granted.load())
	}
}

// TestDedupRaceStress hammers the lock-striped explore.Dedup with
// overlapping digests from GOMAXPROCS goroutines and checks the final
// distinct counts against a single-threaded reference. Each worker
// records a state's key when its digest was fresh, as the recorder
// does, so the key list must hold every state exactly once.
func TestDedupRaceStress(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const distinct = 500
	mkFP := func(i int) hb.Fingerprint {
		return hb.Fingerprint{uint64(i) * 0x9e3779b97f4a7c15, uint64(i)}
	}
	mkSig := func(i int) model.StateSig {
		return model.StateSig{uint64(i), uint64(i) * 0x85ebca77c2b2ae63}
	}
	d := explore.NewDedup()
	var fresh atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker inserts every key, in a different order, so
			// each insertion races with workers−1 duplicates.
			for k := 0; k < distinct; k++ {
				i := (k*7 + w*13) % distinct
				if d.AddHBR(mkFP(i)) {
					fresh.add(1)
				}
				if d.AddLazy(mkFP(i + distinct)) {
					fresh.add(1)
				}
				if d.AddState(mkSig(i)) {
					fresh.add(1)
					d.RecordStateKey(strconv.Itoa(i))
				}
			}
		}(w)
	}
	wg.Wait()
	hbrs, lazies, states := d.Counts()
	if hbrs != distinct || lazies != distinct || states != distinct {
		t.Fatalf("counts = (%d,%d,%d), want (%d,%d,%d)", hbrs, lazies, states, distinct, distinct, distinct)
	}
	if fresh.load() != 3*distinct {
		t.Fatalf("freshness attributed %d times, want %d (each key exactly once)", fresh.load(), 3*distinct)
	}
	keys := d.SortedStates()
	if len(keys) != distinct {
		t.Fatalf("%d state keys recorded, want %d", len(keys), distinct)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("state key %s recorded twice", keys[i])
		}
	}
}

// atomic64 is a tiny counter helper (sync/atomic.Int64 spelled out so
// the test reads as what it races on).
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
