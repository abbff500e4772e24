package explore

import (
	"math/rand"

	"repro/internal/model"
)

// randomEngine samples schedules uniformly at each choice point — the
// non-systematic baseline ("random testing"). It offers no coverage
// guarantee; the paper's techniques exist to beat it.
//
// Each walk re-seeds the engine's one rng with mixWalkSeed(seed, index),
// so walk i is the same schedule whether the walks run sequentially or
// are fanned out across workers in index ranges — the property the
// campaign package's parallel random search relies on for exact
// counter agreement with the sequential engine.
type randomEngine struct {
	seed int64
	// firstWalk and walks restrict the engine to walk indices
	// [firstWalk, firstWalk+walks); walks == 0 means the budget
	// comes from Options.ScheduleLimit starting at index firstWalk.
	firstWalk int
	walks     int
}

// NewRandomWalk returns a seeded random-walk engine; the schedule
// budget comes from Options.ScheduleLimit (required).
func NewRandomWalk(seed int64) Engine { return &randomEngine{seed: seed} }

// NewRandomWalkRange returns a random-walk engine restricted to walk
// indices [first, first+walks) of the seed's walk sequence. Splitting
// [0, limit) into disjoint ranges and exploring them concurrently
// under a shared Dedup reproduces NewRandomWalk(seed) with
// ScheduleLimit=limit exactly.
func NewRandomWalkRange(seed int64, first, walks int) Engine {
	return &randomEngine{seed: seed, firstWalk: first, walks: walks}
}

// Name implements Engine.
func (e *randomEngine) Name() string { return "random" }

// mixWalkSeed derives walk i's rng seed from the engine seed via a
// splitmix64 round, decorrelating consecutive walk indices.
func mixWalkSeed(seed int64, walk int) int64 {
	z := uint64(seed) + uint64(walk)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Explore implements Engine.
func (e *randomEngine) Explore(src model.Source, opt Options) Result {
	walks := e.walks
	if walks <= 0 {
		walks = opt.ScheduleLimit
		if walks <= 0 {
			walks = 1000
		}
	}
	// The walk count is the budget; disable the generic limit check
	// so ranged sub-engines sharing one Dedup don't each stop early.
	opt.ScheduleLimit = 0
	c := newWalkCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)
	base := c.replayPrefix(opt.Prefix, nil)
	rng := rand.New(&walkSource{})
	for i := 0; i < walks; i++ {
		rng.Seed(mixWalkSeed(e.seed, e.firstWalk+i))
		for !c.truncated() {
			en := c.enabled()
			if len(en) == 0 {
				break
			}
			c.step(en[rng.Intn(len(en))])
		}
		rec.classifyWalk(c)
		if rec.schedule() {
			break
		}
		c.resetTo(base)
	}
	// Random walks revisit schedules, so the invariant chain over
	// *distinct* quantities still holds; exhausting the walk budget
	// is the normal exit and counts as hitting the limit — unless a
	// context cancellation or a first-bug stop cut the run short
	// instead.
	if !rec.res.Interrupted && !(opt.StopAtFirstBug && rec.res.FirstViolation != nil) {
		rec.res.HitLimit = true
	}
	return rec.finish(c)
}
