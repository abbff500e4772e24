package explore

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// posEngine implements partial-order sampling (POS, after Yuan et al.,
// CAV 2018): a randomized walk whose choice distribution is corrected
// by the happens-before tracker's independence information. Every
// thread's pending event carries a random priority; each step runs the
// highest-priority enabled thread; and after executing an event the
// engine redraws priorities for exactly the threads whose pending
// operations *race* with it (hb.Tracker.RacesWithNext: dependent,
// co-enablable, not already HB-ordered). Operations independent of the
// executed event keep their priorities — their order against it cannot
// distinguish Mazurkiewicz trace classes, so re-randomizing them would
// re-weight schedules within one class. The result samples trace
// classes much closer to uniformly than the naive random walk, which
// drowns in the classes with the most equivalent interleavings.
//
// Walk i is fully determined by mixWalkSeed(seed, i) and the program
// (the machine and the priority redraw order are deterministic), so a
// run is byte-reproducible from its seed; the engine name carries the
// seed (see Name). The schedule budget comes from
// Options.ScheduleLimit.
type posEngine struct {
	seed int64
}

// NewPOS returns a partial-order sampling engine.
func NewPOS(seed int64) Engine { return &posEngine{seed: seed} }

// Name implements Engine. The seed is part of the name so a recorded
// Result (and any counterexample artifact captured from it) identifies
// the exact reproducible configuration that found the bug.
func (e *posEngine) Name() string { return fmt.Sprintf("pos[s%d]", e.seed) }

// Explore implements Engine.
func (e *posEngine) Explore(src model.Source, opt Options) Result {
	walks := opt.ScheduleLimit
	if walks <= 0 {
		walks = 1000
	}
	// The walk count is the budget; disable the generic limit check so
	// the budget semantics match the random-walk baseline exactly.
	opt.ScheduleLimit = 0
	c := newWalkCursor(src, opt)
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)
	base := c.replayPrefix(opt.Prefix, nil)

	prio := make([]float64, src.NumThreads())
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < walks; i++ {
		rng.Seed(mixWalkSeed(e.seed, i))
		for t := range prio {
			prio[t] = rng.Float64()
		}
		for !c.truncated() {
			en := c.enabled()
			if len(en) == 0 {
				break
			}
			t := en[0]
			for _, q := range en[1:] {
				if prio[q] > prio[t] {
					t = q
				}
			}
			ev := c.step(t)
			// The chosen event is consumed: the thread's next pending
			// operation is a new event and draws a fresh priority.
			prio[t] = rng.Float64()
			// Redraw the priority of every enabled thread whose
			// pending operation races with the event just executed.
			// EnabledThreads and Pending are deterministic in machine
			// state, so the rng consumption order — and with it the
			// whole walk — is reproducible.
			for _, q := range c.enabled() {
				if q == t {
					continue
				}
				if op, ok := c.m.Pending(q); ok && c.tr.RacesWithNext(ev, q, op) {
					prio[q] = rng.Float64()
				}
			}
		}
		rec.classifyWalk(c)
		if rec.schedule() {
			break
		}
		c.resetTo(base)
	}
	// Exhausting the walk budget is the normal exit and counts as
	// hitting the limit, exactly like the random-walk baseline —
	// unless a cancellation or first-bug stop cut the run short.
	if !rec.res.Interrupted && !(opt.StopAtFirstBug && rec.res.FirstViolation != nil) {
		rec.res.HitLimit = true
	}
	return rec.finish(c)
}
