// Package sct is the public face of the systematic concurrency tester
// — the one supported entry point for embedding the harness that
// reproduces Thomson & Donaldson's PPoPP'15 schedule-bounding study.
// Everything the internal packages implement (exploration engines,
// the parallel campaign runner, counterexample capture/minimize/
// replay, the Go-closure program harness) is reachable from here, so
// user code never imports repro/internal/....
//
// # Programs
//
// Build a program under test from ordinary Go closures with
// [NewProgram]: each thread announces its visible operations (shared
// reads/writes, lock/unlock, spawn/join, assertions) through the [G]
// handle, and the tester controls their interleaving exactly.
// Anything implementing [Source] — including the internal benchmark
// corpus — explores the same way.
//
// # Exploration
//
// [Run] explores a program's schedule space with a named engine and
// functional options:
//
//	rep, err := sct.Run(ctx, prog, "dpor+sleep",
//	        sct.WithScheduleLimit(100000),
//	        sct.StopAtFirstBug())
//
// Engines are named by registry specs ("dfs", "dpor", "pb:2",
// "pdpor:4", ...); [Engines] lists what is registered and [Register]
// adds new ones, so third-party engines plug into Run, campaigns and
// the eval tooling without forking.
//
// # Campaigns
//
// [NewCampaign] runs a grid of (benchmark, engine) cells across a
// worker pool and streams each finished cell through a Go iterator:
//
//	camp, _ := sct.NewCampaign(cells, sct.WithWorkers(8))
//	for res := range camp.Results(ctx) { ... }
//
// A partially completed run checkpoint-resumes with
// [Campaign.Resume], which skips every cell already present in a
// saved JSONL stream.
//
// # Counterexamples
//
// When a run finds a violation, [Report.Counterexample] packages it
// as a portable artifact that can be minimized (ddmin +
// preemption lowering), saved, loaded and deterministically replayed:
//
//	cx, _ := rep.Counterexample()
//	cx.Minimize()
//	cx.Save("bug.json")
//	...
//	cx, _ = sct.Load("bug.json")
//	out, err := cx.Replay(prog)
package sct

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
)

// Source is a program whose schedule space can be explored: the
// model-layer contract every program representation (including
// [Program]) satisfies.
type Source = model.Source

// Options is the engine-level configuration a [Run] compiles its
// functional options down to. Custom [Engine] implementations receive
// it in Explore.
type Options = explore.Options

// Result summarises one exploration: schedules executed, distinct
// terminal HBRs / lazy HBRs / states, violation counters, and the
// first-violation witness.
type Result = explore.Result

// Engine is a schedule-exploration strategy. Implementations report a
// stable Name and explore a program's schedule space under the given
// options; register them with [Register] to make them buildable by
// name everywhere engines are named.
type Engine = explore.Engine

// Witness describes one violating terminal execution the moment an
// engine sees it; [OnViolation] callbacks receive it.
type Witness = explore.Witness

// ThreadID identifies a thread of the program under test.
type ThreadID = event.ThreadID

// Event is one executed visible operation in a trace.
type Event = event.Event

// Outcome is a fully recorded single execution: trace, final state,
// failures, races.
type Outcome = exec.Outcome

// StealStats reports how a work-stealing parallel search distributed
// its units (the Result.Steal field).
type StealStats = explore.StealStats

// Report is the outcome of one [Run].
type Report struct {
	Result
	// Violation is non-nil when a safety violation was found; it
	// carries the deterministic reproduction.
	Violation *Violation

	src      Source
	maxSteps int
}

// Violation describes the first safety violation an exploration
// found: its Kind ("deadlock", "assertion failure", "lock misuse",
// "data race"), the violating Schedule (the thread chosen at each
// step) and the replayed Outcome with full trace, failures and races.
type Violation struct {
	Kind string
	// Schedule replays the violation: the thread chosen at each
	// step.
	Schedule []ThreadID
	// Outcome is the replayed execution, with full trace.
	Outcome Outcome
}

// String summarises the violation.
func (v *Violation) String() string {
	return fmt.Sprintf("%s after %d steps", v.Kind, len(v.Schedule))
}

// Run explores src's schedule space with the named engine. The
// options compile down to the engine-level [Options]; invalid
// combinations error before any exploration work. The engine name is
// a registry spec — see [Engines].
//
// A found violation is replayed into Report.Violation;
// [Report.Counterexample] turns it into a portable artifact.
func Run(ctx context.Context, src Source, engine string, opts ...Option) (*Report, error) {
	if src == nil {
		return nil, errors.New("sct: Run with nil program")
	}
	eng, err := NewEngine(engine)
	if err != nil {
		return nil, err
	}
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.reject("Run", `single-search parallelism is spelled in the engine spec, e.g. "pdpor:8"`,
		"WithWorkers"); err != nil {
		return nil, err
	}
	if err := cfg.reject("Run", "containment is a campaign-runner property: pass it to NewCampaign",
		"WithCellTimeout"); err != nil {
		return nil, err
	}
	if err := cfg.reject("Run", "heartbeats and flight recorders are campaign-runner properties: pass them to NewCampaign (Run observes via WithObserver)",
		"WithHeartbeat", "WithFlightRecorder"); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eopt := cfg.exploreOptions(ctx)
	if err := eopt.Validate(); err != nil {
		return nil, fmt.Errorf("sct: %w", err)
	}
	res := eng.Explore(src, eopt)
	rep := &Report{Result: res, src: src, maxSteps: cfg.maxSteps}
	if err := res.CheckInvariant(); err != nil {
		// A broken inequality chain indicates a framework bug,
		// never a program-under-test bug.
		return rep, fmt.Errorf("sct: %s on %s: %w", engine, src.Name(), err)
	}
	if res.ViolationKind != "" {
		// StallTimeout carries over as insurance: a recorded witness
		// never schedules into a diverging branch, but a buggy or
		// nondeterministic program could still stall the replay.
		rep.Violation = &Violation{
			Kind:     res.ViolationKind,
			Schedule: res.FirstViolation,
			Outcome: exec.Replay(src, res.FirstViolation, exec.Options{
				MaxSteps: eopt.MaxSteps, RecordClocks: true, StallTimeout: eopt.StallTimeout}),
		}
	}
	return rep, nil
}

// Counterexample packages the run's first violation as a portable,
// replayable artifact bound to the explored program. It errors when
// the run saw no violation.
func (r *Report) Counterexample() (*Counterexample, error) {
	return NewCounterexample(r.src, r.Result, r.maxSteps)
}
