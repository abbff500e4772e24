package explore

import (
	"fmt"
	"math/rand"

	"repro/internal/event"
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
	return sample(src, opt, e.Name(), e.seed, func(*cursor) walker {
		return &posWalk{prio: make([]float64, src.NumThreads())}
	})
}

// posWalk runs the highest-priority enabled thread and redraws the
// priorities the executed event's races invalidate.
type posWalk struct {
	prio []float64
}

func (w *posWalk) begin(rng *rand.Rand) {
	for t := range w.prio {
		w.prio[t] = rng.Float64()
	}
}

func (w *posWalk) step(c *cursor, en []event.ThreadID, rng *rand.Rand) {
	t := highest(en, w.prio)
	ev := c.step(t)
	// The chosen event is consumed: the thread's next pending
	// operation is a new event and draws a fresh priority.
	w.prio[t] = rng.Float64()
	// Redraw the priority of every enabled thread whose pending
	// operation races with the event just executed. EnabledThreads and
	// Pending are deterministic in machine state, so the rng
	// consumption order — and with it the whole walk — is
	// reproducible.
	for _, q := range c.enabled() {
		if q == t {
			continue
		}
		if op, ok := c.m.Pending(q); ok && c.tr.RacesWithNext(ev, q, op) {
			w.prio[q] = rng.Float64()
		}
	}
}
