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
// so walk i is a pure function of (seed, i) and the program, whatever
// ran before it.
type randomEngine struct {
	seed int64
}

// NewRandomWalk returns a seeded random-walk engine; the schedule
// budget comes from Options.ScheduleLimit (required).
func NewRandomWalk(seed int64) Engine { return &randomEngine{seed: seed} }

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
	walks := opt.ScheduleLimit
	if walks <= 0 {
		walks = 1000
	}
	// The walk count is the budget and the loop bound enforces it, so
	// the recorder's own limit check is disabled: the final walk then
	// still checks for cancellation and resets like every other walk
	// (Interrupted and the backtrack count depend on it), and HitLimit
	// is set after the loop.
	opt.ScheduleLimit = 0
	c := newWalkCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)
	rng := rand.New(&walkSource{})
	for i := 0; i < walks; i++ {
		rng.Seed(mixWalkSeed(e.seed, i))
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
		c.resetTo(0)
	}
	// Random walks revisit schedules, so the invariant chain over
	// *distinct* quantities still holds; exhausting the walk budget
	// is the normal exit and counts as hitting the limit — unless a
	// context cancellation or a first-bug stop cut the run short
	// instead.
	if !rec.res.Interrupted && !(opt.StopAtFirstBug && rec.res.ViolationKind != "") {
		rec.res.HitLimit = true
	}
	return rec.finish(c)
}
