// Package exec runs one program execution under a scheduling policy
// (Chooser) and reports the resulting trace, happens-before clocks,
// final state and safety outcomes. Exploration engines that need
// step-level control drive model.Machine and hb.Tracker directly; this
// package is the single-execution entry point used for replay, random
// testing and the examples. A Runner repeats executions of one program
// on one machine and tracker, resetting them in place between runs,
// for callers that replay many schedules (schedule minimization).
package exec

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/internal/vclock"
)

// DefaultMaxSteps bounds an execution's length when Options.MaxSteps is
// zero. Executions that reach the bound are reported as truncated, the
// standard SCT treatment of potentially diverging schedules.
const DefaultMaxSteps = 4096

// Chooser selects which enabled thread executes next.
type Chooser interface {
	// Choose picks one element of enabled (never empty). step is the
	// number of events executed so far.
	Choose(m *model.Machine, enabled []event.ThreadID, step int) event.ThreadID
}

// FirstEnabled deterministically picks the lowest-numbered enabled
// thread. It is the canonical default continuation policy of the
// exploration engines.
type FirstEnabled struct{}

// Choose implements Chooser.
func (FirstEnabled) Choose(_ *model.Machine, enabled []event.ThreadID, _ int) event.ThreadID {
	return enabled[0]
}

// Prefix replays a fixed sequence of thread choices, then delegates to
// Fallback (FirstEnabled if nil). Replaying a recorded Outcome.Choices
// reproduces its schedule exactly.
type Prefix struct {
	Choices  []event.ThreadID
	Fallback Chooser
}

// Choose implements Chooser. If a prefix choice is not currently
// enabled the prefix is abandoned and the fallback takes over — this
// can only happen when replaying a schedule against a different
// program.
func (p *Prefix) Choose(m *model.Machine, enabled []event.ThreadID, step int) event.ThreadID {
	if step < len(p.Choices) {
		want := p.Choices[step]
		for _, t := range enabled {
			if t == want {
				return t
			}
		}
	}
	fb := p.Fallback
	if fb == nil {
		fb = FirstEnabled{}
	}
	return fb.Choose(m, enabled, step)
}

// Random picks uniformly among enabled threads using a seeded source,
// giving deterministic "random testing" baselines.
type Random struct {
	Rng *rand.Rand
}

// NewRandom returns a Random chooser with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{Rng: rand.New(rand.NewSource(seed))}
}

// Choose implements Chooser.
func (r *Random) Choose(_ *model.Machine, enabled []event.ThreadID, _ int) event.ThreadID {
	return enabled[r.Rng.Intn(len(enabled))]
}

// Options configures a single execution.
type Options struct {
	// MaxSteps bounds the number of events (DefaultMaxSteps if 0).
	MaxSteps int
	// RecordClocks retains per-event HB and lazy-HB clocks in the
	// outcome (the tracker always runs; this only controls storage).
	RecordClocks bool
	// Ctx, when non-nil, bounds the execution by deadline or
	// cancellation: it is checked every ctxCheckStride events and a
	// done context truncates the execution (Outcome.Interrupted).
	Ctx context.Context
	// StallTimeout arms the divergence watchdog on frontends whose
	// thread bodies can diverge in local computation (goharness): a
	// thread body that does not switch back to the scheduler within
	// this long is fenced (abandoned with the helper goroutine that
	// switched into it) and the execution ends as diverged. 0
	// disables the watchdog; then each switch into a body is a plain
	// coroutine switch on the scheduler's goroutine.
	StallTimeout time.Duration
}

// ctxCheckStride is how many events run between context checks; a
// power of two so the stride test is a branch-free mask.
const (
	ctxCheckStride = 64
	ctxCheckMask   = ctxCheckStride - 1
)

// Outcome describes one completed (or truncated) execution.
type Outcome struct {
	// Trace lists the executed events in schedule order.
	Trace []event.Event
	// Choices lists the scheduled thread per step; replaying them
	// through a Prefix chooser reproduces the schedule.
	Choices []event.ThreadID
	// HBClocks and LazyClocks are per-event vector clocks, present
	// when Options.RecordClocks was set. They are immutable views
	// shared with the tracker (copy-on-write) and must not be
	// modified.
	HBClocks, LazyClocks []vclock.VC
	// HBFP and LazyFP fingerprint the terminal regular and lazy
	// happens-before relations.
	HBFP, LazyFP hb.Fingerprint
	// StateKey exactly encodes the final machine state; StateHash is
	// its 64-bit digest and StateSig the 128-bit digest the
	// exploration engines' distinct-state sets key on.
	StateKey  string
	StateHash uint64
	StateSig  model.StateSig
	// Deadlock is set when the execution ended with blocked threads
	// and nothing enabled.
	Deadlock bool
	// Truncated is set when MaxSteps was reached (or the context
	// expired; see Interrupted).
	Truncated bool
	// Interrupted is set when Options.Ctx ended the execution early.
	Interrupted bool
	// Diverged is set when a thread was fenced as stuck in local
	// computation (the stall watchdog fired, or the frontend announced
	// divergence); DivergedThread identifies it.
	Diverged       bool
	DivergedThread event.ThreadID
	// Failures lists assertion failures and lock-discipline errors.
	Failures []model.Failure
	// Races lists data races detected by the sync-only relation.
	Races []hb.Race
}

// Failed reports whether the execution violated any safety property
// (assertion failure, lock misuse, deadlock or data race).
func (o *Outcome) Failed() bool {
	return len(o.Failures) > 0 || o.Deadlock || len(o.Races) > 0
}

// ViolationKind names the outcome's most severe safety violation,
// using the classes and precedence shared with the exploration
// recorder (model.ViolationKind); "" when the execution is
// violation-free.
func (o *Outcome) ViolationKind() string {
	return model.ViolationKind(o.Deadlock, o.Failures, len(o.Races) > 0)
}

// Runner executes one program again and again, reusing one machine
// and tracker: the first run builds them, and each later run resets
// both in place instead of rebuilding them. An Outcome shares no
// storage a later run reuses: its trace, choices, failures and races
// are its own, and the clocks RecordClocks retains are pinned by the
// tracker (Tracker.Apply), so they stay intact across later runs. A
// run can end with thread bodies still live (a deadlock leaves its
// blocked threads mid-body); the next run resets them, and Close
// releases them once the runner is done. A Runner is not safe for
// concurrent use.
type Runner struct {
	src     model.Source
	opt     Options
	m       *model.Machine
	tr      *hb.Tracker
	enabled []event.ThreadID
}

// NewRunner returns a runner for src under opt.
func NewRunner(src model.Source, opt Options) *Runner {
	return &Runner{src: src, opt: opt}
}

// Run executes src to completion under ch.
func Run(src model.Source, ch Chooser, opt Options) Outcome {
	r := NewRunner(src, opt)
	defer r.Close()
	return r.Run(ch)
}

// Close releases what the runner's machine still holds: the thread
// bodies its last run left live, such as the blocked threads of a
// deadlock. A later Run starts on a fresh machine.
func (r *Runner) Close() {
	if r.m != nil {
		r.m.Abort()
		r.m, r.tr = nil, nil
	}
}

// Run executes the runner's program to completion under ch.
func (r *Runner) Run(ch Chooser) Outcome {
	src, opt := r.src, r.opt
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	if r.m == nil {
		r.m = model.NewMachineCfg(src, model.MachineConfig{StallTimeout: opt.StallTimeout})
		r.tr = hb.NewTrackerChans(src.NumThreads(), src.NumVars(), src.NumMutexes(), model.NumChannels(src))
	} else {
		r.m.Reset()
		r.tr.Reset()
	}
	m, tr := r.m, r.tr
	var out Outcome
	// Hoist the nil test out of the loop: with no caller context the
	// stride check polls context.Background, whose Err is a constant
	// nil return, instead of branching on opt.Ctx every event.
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		// Divergence ends the execution before anything else: the
		// fenced thread can never be stepped, and the remaining
		// threads' state no longer means anything for this schedule.
		if m.HasDiverged() {
			out.Diverged = true
			out.DivergedThread = m.DivergedThread()
			break
		}
		r.enabled = m.EnabledThreads(r.enabled)
		if len(r.enabled) == 0 {
			out.Deadlock = m.Deadlocked()
			break
		}
		if len(out.Trace) >= maxSteps {
			out.Truncated = true
			break
		}
		if uint(len(out.Trace))&ctxCheckMask == 0 && ctx.Err() != nil {
			out.Truncated = true
			out.Interrupted = true
			break
		}
		t := ch.Choose(m, r.enabled, len(out.Trace))
		ev := m.Step(t)
		if opt.RecordClocks {
			clocks := tr.Apply(ev)
			out.HBClocks = append(out.HBClocks, clocks.HB)
			out.LazyClocks = append(out.LazyClocks, clocks.Lazy)
		} else {
			tr.ApplyFast(ev)
		}
		out.Trace = append(out.Trace, ev)
		out.Choices = append(out.Choices, t)
	}
	out.HBFP = tr.HBFingerprint()
	out.LazyFP = tr.LazyFingerprint()
	out.StateKey = m.StateKey()
	out.StateHash = m.StateHash()
	out.StateSig = m.StateSig()
	out.Failures = m.Failures()
	out.Races = tr.Races()
	return out
}

// Replay re-executes a recorded schedule on the runner's program.
func (r *Runner) Replay(choices []event.ThreadID) Outcome {
	return r.Run(&Prefix{Choices: choices})
}

// Replay re-executes a recorded schedule and returns its outcome. The
// replayed outcome of a deterministic program is identical to the
// original.
func Replay(src model.Source, choices []event.ThreadID, opt Options) Outcome {
	r := NewRunner(src, opt)
	defer r.Close()
	return r.Replay(choices)
}
