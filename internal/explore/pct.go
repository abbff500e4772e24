package explore

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/event"
	"repro/internal/model"
)

// pctEngine implements PCT — probabilistic concurrency testing
// (Burckhardt et al., ASPLOS 2010). Each walk is a priority-based
// schedule: every thread draws a distinct initial priority, the
// scheduler always runs the highest-priority enabled thread, and d−1
// priority *change points* are planted at uniformly random step
// indices over an estimated event count. When execution reaches change
// point j, the thread that executed that step has its priority lowered
// to j+1 — below every initial priority — forcing the specific
// low-probability preemptions that depth-d bugs need. For a program
// with n threads and k events, each walk finds any depth-d bug with
// probability ≥ 1/(n·k^(d−1)); with d = 1 the engine degenerates to a
// pure priority random walk (no change points).
//
// Like the random-walk baseline, walk i is fully determined by
// mixWalkSeed(seed, i) and the program, so a run is byte-reproducible
// from its seed and the recorded engine name carries that seed (see
// Name). The schedule budget comes from Options.ScheduleLimit.
type pctEngine struct {
	seed  int64
	depth int
}

// NewPCT returns a PCT engine for bug depth d ≥ 1 (the number of
// ordered scheduling constraints the target bug needs; d−1 priority
// change points are planted per walk).
func NewPCT(seed int64, depth int) Engine {
	if depth < 1 {
		depth = 1
	}
	return &pctEngine{seed: seed, depth: depth}
}

// Name implements Engine. The seed is part of the name so a recorded
// Result (and any counterexample artifact captured from it) identifies
// the exact reproducible configuration that found the bug.
func (e *pctEngine) Name() string { return fmt.Sprintf("pct%d[s%d]", e.depth, e.seed) }

// pctChangePoints draws the d−1 priority change points of one walk
// into pts[:0] and returns it: step indices distributed uniformly over
// [1, k], where change point j (0-based) carries priority value j+1.
// d ≤ 1 plants none — the degenerate priority-random-walk case.
func pctChangePoints(rng *rand.Rand, depth, k int, pts []int) []int {
	pts = pts[:0]
	k = max(k, 1)
	for i := 1; i < depth; i++ {
		pts = append(pts, 1+rng.Intn(k))
	}
	return pts
}

// estimateEvents measures the event count of one deterministic
// schedule (always the lowest-numbered enabled thread), bounded by
// maxSteps — PCT's estimate of k, the number of scheduling points a
// walk will see. Any complete schedule is a fine estimate: lengths
// vary across schedules by at most the truncation bound, and the PCT
// guarantee only needs change points spread over the walk's lifetime.
// The probe runs on a throwaway machine so it perturbs no Result
// counter; it shares the cursor's machine config so a diverging
// program is fenced by the watchdog (and its hint reused) instead of
// hanging the estimate.
//
// The probe honours ctx: a cancelled exploration returns immediately —
// before the machine even starts, so a hostile program's wall-clock
// stall is never paid — and cancellation between steps cuts the probe
// short. It is also panic-safe: a program that panics outside a thread
// body (a hostile Source) yields whatever partial estimate was
// measured and lets the exploration proper surface the fault under its
// own containment. Partial estimates are clamped to ≥ 1, which only
// spreads change points less widely — PCT's guarantee degrades, never
// its soundness.
func estimateEvents(ctx context.Context, src model.Source, mcfg model.MachineConfig, maxSteps int) int {
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	steps := 0
	if !done() {
		func() {
			defer func() { _ = recover() }()
			m := model.NewMachineCfg(src, mcfg)
			defer m.Abort()
			var buf []event.ThreadID
			for steps < maxSteps && !m.HasDiverged() && !done() {
				buf = m.EnabledThreads(buf)
				if len(buf) == 0 {
					break
				}
				m.Step(buf[0])
				steps++
			}
		}()
	}
	if steps < 1 {
		return 1
	}
	return steps
}

// Explore implements Engine.
func (e *pctEngine) Explore(src model.Source, opt Options) Result {
	return sample(src, opt, e.Name(), e.seed, func(c *cursor) walker {
		return &pctWalk{
			depth: e.depth,
			k:     estimateEvents(opt.Ctx, src, c.mcfg, opt.maxSteps()),
			prio:  make([]int, src.NumThreads()),
		}
	})
}

// pctWalk runs the highest-priority enabled thread and lowers the
// running thread's priority at each change point.
type pctWalk struct {
	depth, k int
	prio     []int
	points   []int
	steps    int
}

func (w *pctWalk) begin(rng *rand.Rand) {
	// Initial priorities: a random permutation of d..d+n−1, every one
	// above every change-point value 1..d−1. It is built in place with
	// rand.Perm's exact draws (one Intn(i+1) per thread, in order), so
	// the walk's rng stream is the one rng.Perm would leave.
	for i := range w.prio {
		j := rng.Intn(i + 1)
		w.prio[i] = w.prio[j]
		w.prio[j] = w.depth + i
	}
	w.points = pctChangePoints(rng, w.depth, w.k, w.points)
	w.steps = 0
}

func (w *pctWalk) step(c *cursor, en []event.ThreadID, _ *rand.Rand) {
	t := highest(en, w.prio)
	c.step(t)
	w.steps++
	// Change points may coincide on one step; each still assigns its
	// own distinct value, the last one winning, so priorities stay
	// pairwise distinct throughout.
	for j, at := range w.points {
		if at == w.steps {
			w.prio[t] = j + 1
		}
	}
}
