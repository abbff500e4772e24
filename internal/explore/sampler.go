package explore

import (
	"math/rand"

	"repro/internal/event"
	"repro/internal/model"
)

// walker is a sampling engine's walk policy: the per-walk setup and
// the choice step that random, pct and pos supply to sample. Both draw
// every random value from the rng sample hands them, which it has
// re-seeded for the walk, so walk i is a pure function of
// (seed, i) and the program, whatever ran before it.
type walker interface {
	// begin prepares a fresh walk from the initial state.
	begin(rng *rand.Rand)
	// step picks one of the enabled threads en (non-empty), steps the
	// cursor to it and updates the policy's state.
	step(c *cursor, en []event.ThreadID, rng *rand.Rand)
}

// mixWalkSeed derives walk i's rng seed from the engine seed via a
// splitmix64 round, decorrelating consecutive walk indices.
func mixWalkSeed(seed int64, walk int) int64 {
	z := uint64(seed) + uint64(walk)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// sample is the sampling engines' one walk loop. The schedule budget
// comes from Options.ScheduleLimit (1000 walks when 0); each walk
// re-seeds the engine's one rng with mixWalkSeed(seed, i), runs
// straight to its end under the walker's choices, and resets to the
// initial state. newWalker builds the policy once the cursor exists:
// pct's event-count probe shares the cursor's machine config.
func sample(src model.Source, opt Options, name string, seed int64, newWalker func(*cursor) walker) Result {
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
	w := newWalker(c)
	rec := newRecorder(src, name, opt, c)
	rng := rand.New(&walkSource{})
	for i := 0; i < walks; i++ {
		// Check cancellation before the walk, not only after it: a
		// hostile program can make a single walk pay a wall-clock
		// stall, which a cancelled exploration must not start.
		if opt.interrupted() {
			rec.res.Interrupted = true
			break
		}
		rng.Seed(mixWalkSeed(seed, i))
		w.begin(rng)
		for !c.truncated() {
			en := c.enabled()
			if len(en) == 0 {
				break
			}
			w.step(c, en, rng)
		}
		rec.classifyWalk(c)
		if rec.schedule() {
			break
		}
		c.resetTo(0)
	}
	// Walks revisit schedules, so the invariant chain over *distinct*
	// quantities still holds; exhausting the walk budget is the normal
	// exit and counts as hitting the limit — unless a context
	// cancellation or a first-bug stop cut the run short instead.
	if !rec.res.Interrupted && !(opt.StopAtFirstBug && rec.res.ViolationKind != "") {
		rec.res.HitLimit = true
	}
	return rec.finish(c)
}

// highest returns the enabled thread with the highest priority, the
// lowest-numbered one on a tie.
func highest[P int | float64](en []event.ThreadID, prio []P) event.ThreadID {
	t := en[0]
	for _, q := range en[1:] {
		if prio[q] > prio[t] {
			t = q
		}
	}
	return t
}
