package explore

import (
	"math/rand"

	"repro/internal/event"
	"repro/internal/model"
)

// randomEngine samples schedules uniformly at each choice point — the
// non-systematic baseline ("random testing"). It offers no coverage
// guarantee; the paper's techniques exist to beat it.
type randomEngine struct {
	seed int64
}

// NewRandomWalk returns a seeded random-walk engine; the schedule
// budget comes from Options.ScheduleLimit (required).
func NewRandomWalk(seed int64) Engine { return &randomEngine{seed: seed} }

// Name implements Engine.
func (e *randomEngine) Name() string { return "random" }

// Explore implements Engine.
func (e *randomEngine) Explore(src model.Source, opt Options) Result {
	return sample(src, opt, e.Name(), e.seed, func(*cursor) walker { return randomWalk{} })
}

// randomWalk picks uniformly among the enabled threads.
type randomWalk struct{}

func (randomWalk) begin(*rand.Rand) {}

func (randomWalk) step(c *cursor, en []event.ThreadID, rng *rand.Rand) {
	c.step(en[rng.Intn(len(en))])
}
