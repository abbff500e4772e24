// Package explore implements the systematic schedule-exploration
// engines evaluated in the paper:
//
//   - exhaustive depth-first enumeration (the baseline search);
//   - dynamic partial-order reduction (DPOR, Flanagan & Godefroid,
//     POPL 2005), with optional sleep sets;
//   - HBR caching and lazy HBR caching (Musuvathi & Qadeer,
//     MSR-TR-2007-12; lazy variant per the paper's Section 2);
//   - an experimental "lazy DPOR" (the paper's Section 4 future work);
//   - seeded random walk, as a non-systematic baseline.
//
// Every engine reports the quantities the paper's evaluation plots:
// schedules executed, distinct terminal HBRs, distinct terminal lazy
// HBRs and distinct terminal states, which obey
//
//	#states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules.
package explore

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/hb"
	"repro/internal/model"
)

// MaxThreads bounds the thread universe of explored programs (thread
// sets are bitmask-encoded).
const MaxThreads = 64

// Options configures an exploration.
type Options struct {
	// ScheduleLimit stops exploration after this many executions
	// (terminal, pruned or truncated). 0 means unlimited. The
	// paper's evaluation uses 100,000.
	ScheduleLimit int
	// MaxSteps bounds each execution's event count
	// (exec.DefaultMaxSteps if 0); executions hitting the bound are
	// counted as truncated.
	MaxSteps int
	// RecordStates retains the sorted set of distinct terminal state
	// keys in Result.States — a diagnostic for cross-engine
	// agreement checks; costly on large spaces.
	RecordStates bool

	// StallTimeout arms the divergence watchdog on frontends whose
	// thread bodies can get stuck in local computation (goharness): a
	// thread body that does not switch back to the scheduler within
	// this long is fenced (abandoned with the helper goroutine that
	// switched into it), the execution is counted in
	// Result.Divergences, and exploration continues with the
	// remaining schedules. Discovered divergence points are memoised
	// across the run's machines, so a stuck loop costs one timeout
	// total, not one per schedule. 0 disables the watchdog (a
	// diverging body hangs the search).
	StallTimeout time.Duration

	// Ctx, when non-nil, bounds the exploration by deadline or
	// cancellation: the engine stops at the next schedule boundary
	// with Result.Interrupted set.
	Ctx context.Context

	// StopAtFirstBug stops the search the moment a terminal execution
	// exhibits a safety violation: the violating execution is counted,
	// Result.FirstViolation/ViolationKind/FirstBugSchedule describe
	// the witness, and no further schedules run. This is the paper's
	// bug-finding metric — schedules executed until the first bug.
	StopAtFirstBug bool

	// OnViolation, when non-nil, is invoked (on the engine's
	// goroutine) for every terminal execution that exhibits a safety
	// violation, with a self-contained witness. Parallel searches call
	// it from multiple worker goroutines concurrently; callbacks must
	// synchronise internally.
	OnViolation func(Witness)

	// Counters, when non-nil, receives live lock-free telemetry:
	// the engine publishes counter deltas at every schedule boundary
	// with atomic adds, so one Counters shared across the workers of
	// a parallel search aggregates the totals. Pure telemetry — never
	// feeds back into exploration.
	Counters *Counters

	// Observer, when non-nil, delivers periodic Progress snapshots on
	// a schedule-count/wall-clock cadence (see Observer). Nil costs
	// one predicted branch per schedule and zero allocations.
	Observer *Observer

	// Flight, when non-nil, records the schedule prefix, outcome and
	// timing of recent executions into a bounded ring — the flight
	// recorder dumped when a campaign cell is quarantined.
	Flight *FlightRecorder
}

// Witness describes one violating terminal execution the moment it is
// seen: everything the repro subsystem needs to capture a portable,
// deterministically replayable counterexample.
type Witness struct {
	// Program names the program under test; Engine the engine that
	// found the witness.
	Program, Engine string
	// Choices is the complete schedule — the thread scheduled at every
	// step, including a work-stealing unit's pinned Unit.Prefix.
	// Replaying it through an exec.Prefix chooser reproduces the
	// violation.
	Choices []event.ThreadID
	// Kind names the violation class ("panic", "deadlock",
	// "assertion failure", "lock misuse", "data race").
	Kind string
	// Schedule is the 1-based index of the violating execution within
	// this engine instance's run: the engine executed Schedule-1
	// schedules before the bug.
	Schedule int
	// StateSig is the 128-bit digest of the violating terminal state.
	StateSig model.StateSig
}

// Validate reports structurally invalid option combinations. Engines
// do not call it on their hot paths; batch drivers (the campaign
// runner) validate cells up front so a bad grid fails loudly instead
// of producing a half-meaningful Result.
func (o Options) Validate() error {
	if o.ScheduleLimit < 0 {
		return fmt.Errorf("explore: negative ScheduleLimit %d", o.ScheduleLimit)
	}
	if o.MaxSteps < 0 {
		return fmt.Errorf("explore: negative MaxSteps %d", o.MaxSteps)
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("explore: negative StallTimeout %v", o.StallTimeout)
	}
	return o.validateObservability()
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return exec.DefaultMaxSteps
	}
	return o.MaxSteps
}

func (o Options) limitReached(schedules int) bool {
	return o.ScheduleLimit > 0 && schedules >= o.ScheduleLimit
}

// interrupted reports whether the exploration context is done.
func (o Options) interrupted() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// Result summarises one exploration.
type Result struct {
	Program string
	Engine  string

	// Schedules counts executions performed: Terminals + Pruned +
	// Truncated + SleepBlocked + Divergences.
	Schedules int
	// Terminals counts executions that ran to a terminal state
	// (everything finished, or deadlock).
	Terminals int
	// Pruned counts executions cut short by HBR/lazy-HBR caching.
	Pruned int
	// Truncated counts executions that hit MaxSteps.
	Truncated int
	// SleepBlocked counts executions abandoned because every enabled
	// thread was in the sleep set (DPOR with sleep sets only).
	SleepBlocked int
	// Divergences counts executions ended by the divergence watchdog
	// (or a frontend's diverge announcement): a thread got stuck in
	// local computation, was fenced, and the schedule was abandoned.
	// Divergence is an execution outcome, not a safety violation — no
	// witness is recorded for it.
	Divergences int

	// DistinctHBRs counts distinct terminal regular happens-before
	// relations; DistinctLazyHBRs the lazy ones; DistinctStates the
	// distinct terminal machine states.
	DistinctHBRs     int
	DistinctLazyHBRs int
	DistinctStates   int

	// Deadlocks, AssertFailures, LockErrors, Races and Panics count
	// terminal executions exhibiting each violation class.
	Deadlocks      int
	AssertFailures int
	LockErrors     int
	Races          int
	// Panics counts terminal executions in which a thread body
	// panicked (the panic was captured as the thread's final visible
	// operation and recorded as a model.FailPanic failure).
	Panics int

	// HitLimit is set when ScheduleLimit (or a shared Budget)
	// stopped the search; an unset flag means the schedule space was
	// exhausted (the paper plots such benchmarks without
	// underlining).
	HitLimit bool
	// Interrupted is set when Options.Ctx expired or was cancelled
	// before the search finished.
	Interrupted bool

	// MaxDepth is the longest execution seen; Events counts every
	// event executed, including replays.
	MaxDepth int
	Events   int64

	// FirstViolation replays the first safety violation found
	// (thread choice per step); ViolationKind names it. A violation
	// in the initial state has an empty FirstViolation, so a non-empty
	// ViolationKind, not a non-nil FirstViolation, says one was found.
	// FirstBugSchedule is the 1-based index of the violating execution
	// — the schedules-to-first-bug metric of the paper's evaluation; 0
	// when no violation was seen. For a merged work-stealing search it
	// counts the schedules of the units before the violating one in
	// unit-key order, not in wall-clock discovery order; the unit set
	// depends on worker timing (and, under StopAtFirstBug, on how far
	// each unit ran), so this index can vary from run to run.
	FirstViolation   []event.ThreadID
	ViolationKind    string
	FirstBugSchedule int `json:"first_bug_schedule,omitempty"`

	// States holds the sorted distinct terminal state keys when
	// Options.RecordStates was set.
	States []string

	// Steal describes the work-stealing execution that produced a
	// parallel DPOR result (worker and unit counts); nil for
	// sequential searches.
	Steal *StealStats `json:"steal,omitempty"`
}

// CheckInvariant validates the paper's Section 3 inequality chain.
func (r *Result) CheckInvariant() error {
	if !(r.DistinctStates <= r.DistinctLazyHBRs &&
		r.DistinctLazyHBRs <= r.DistinctHBRs &&
		r.DistinctHBRs <= r.Schedules) {
		return fmt.Errorf("invariant violated: states=%d lazy=%d hbr=%d schedules=%d",
			r.DistinctStates, r.DistinctLazyHBRs, r.DistinctHBRs, r.Schedules)
	}
	return nil
}

// String renders the headline numbers.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: schedules=%d terminals=%d hbrs=%d lazy=%d states=%d deadlocks=%d asserts=%d races=%d hitLimit=%v",
		r.Program, r.Engine, r.Schedules, r.Terminals, r.DistinctHBRs, r.DistinctLazyHBRs,
		r.DistinctStates, r.Deadlocks, r.AssertFailures, r.Races, r.HitLimit)
}

// Engine is a schedule-exploration strategy.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Explore searches src's schedule space under opt.
	Explore(src model.Source, opt Options) Result
}

// tset is a bitmask-encoded set of thread IDs (< MaxThreads).
type tset uint64

func (s tset) has(t event.ThreadID) bool { return s&(1<<uint(t)) != 0 }
func (s *tset) add(t event.ThreadID)     { *s |= 1 << uint(t) }
func (s tset) empty() bool               { return s == 0 }

// first returns the lowest thread in s; s must be non-empty.
func (s tset) first() event.ThreadID {
	if s == 0 {
		panic("explore: first of empty tset")
	}
	return event.ThreadID(bits.TrailingZeros64(uint64(s)))
}

func checkThreadCount(src model.Source) {
	if src == nil {
		panic("explore: nil source")
	}
	if src.NumThreads() > MaxThreads {
		panic(fmt.Sprintf("explore: program %q has %d threads; limit is %d",
			src.Name(), src.NumThreads(), MaxThreads))
	}
}

// recorder accumulates a Result plus the distinctness sets behind its
// counters. In a work-stealing unit sharing a Dedup the per-recorder
// Distinct* counters report only this instance's fresh discoveries;
// the merged totals come from Dedup.Counts.
type recorder struct {
	res   Result
	opt   Options
	dedup dedupSink
	// unseen is the coarsest relation in which every terminal is
	// known to be new, so the recorder counts it without a set: a
	// caching engine reaches each terminal through a prefix-cache miss
	// on its full trace (cacheHBR, cacheLazy); cacheNone elsewhere.
	unseen cacheMode
	// budget is a work-stealing unit's shared schedule budget (see
	// Unit.Budget); nil everywhere else.
	budget *Budget
	// cur is the engine's cursor, read by telemetry flushes (events,
	// backtracks, choices, resolved backend); tel is nil unless
	// Options armed Counters, an Observer or a FlightRecorder — that
	// nil check is the telemetry layer's entire disabled-path cost.
	cur *cursor
	tel *telemetry
}

func newRecorder(src model.Source, engine string, opt Options, c *cursor) *recorder {
	return &recorder{
		res:   Result{Program: src.Name(), Engine: engine},
		opt:   opt,
		dedup: &localDedup{},
		cur:   c,
		tel:   newTelemetry(opt, src.Name(), engine),
	}
}

// schedule counts one finished execution attempt and reports whether
// the schedule limit, shared budget or context has now stopped the
// search.
func (r *recorder) schedule() bool {
	r.res.Schedules++
	if r.tel != nil {
		r.tel.boundary(r, r.cur, false)
	}
	if r.opt.StopAtFirstBug && r.res.ViolationKind != "" {
		// The witness is captured; the bug-finding run is over. This
		// is a successful stop, not a budget stop: HitLimit stays
		// unset.
		return true
	}
	if r.opt.limitReached(r.res.Schedules) {
		r.res.HitLimit = true
		return true
	}
	if r.budget != nil && !r.budget.take() {
		r.res.HitLimit = true
		return true
	}
	if r.opt.interrupted() {
		r.res.Interrupted = true
		return true
	}
	return false
}

// terminal records a terminal execution's statistics from the cursor.
// Equal HBRs give equal lazy HBRs and equal lazy HBRs equal states
// (Thm 2.1's refinement and Thm 2.2), so the distinctness checks run
// as a chain that stops at the first class already seen: every coarser
// class is then seen too, and its check (a state's digest included) is
// skipped and counted as a hit. Conversely a class new in a coarser
// relation is new in every finer one, which is what r.unseen uses.
func (r *recorder) terminal(c *cursor) {
	r.res.Terminals++
	if d := len(c.trace); d > r.res.MaxDepth {
		r.res.MaxDepth = d
	}
	fresh := 0
	if r.unseen >= cacheHBR || r.dedup.AddHBR(c.tr.HBFingerprint()) {
		r.res.DistinctHBRs++
		fresh++
		if r.unseen >= cacheLazy || r.dedup.AddLazy(c.tr.LazyFingerprint()) {
			r.res.DistinctLazyHBRs++
			fresh++
			if r.dedup.AddState(c.m.StateSig()) {
				r.res.DistinctStates++
				fresh++
				if r.opt.RecordStates {
					// The string key is rendered only for fresh
					// states and only when the caller asked for the
					// diagnostic set; the hot path deduplicates on the
					// binary digest alone.
					r.dedup.RecordStateKey(c.m.StateKey())
				}
			}
		}
	}
	if r.tel != nil {
		r.tel.dedupMisses += int64(fresh)
		r.tel.dedupHits += int64(3 - fresh)
	}

	deadlocked := c.m.Deadlocked()
	if deadlocked {
		r.res.Deadlocks++
	}
	failures := c.m.Failures()
	panics, asserts, lockErrs := 0, 0, 0
	for _, f := range failures {
		switch f.Kind {
		case model.FailPanic:
			panics++
		case model.FailAssert:
			asserts++
		default:
			lockErrs++
		}
	}
	if panics > 0 {
		r.res.Panics++
	}
	if asserts > 0 {
		r.res.AssertFailures++
	}
	if lockErrs > 0 {
		r.res.LockErrors++
	}
	raced := len(c.tr.Races()) > 0
	if raced {
		r.res.Races++
	}
	violation := model.ViolationKind(deadlocked, failures, raced)
	if violation != "" {
		if r.tel != nil {
			// Tag the flight entry this execution will get at the
			// coming schedule boundary.
			r.tel.violation = violation
		}
		if r.res.ViolationKind == "" {
			// Keyed on the kind: a violation in the initial state has
			// the empty (nil) schedule as its witness.
			r.res.FirstViolation = append([]event.ThreadID(nil), c.choices...)
			r.res.ViolationKind = violation
			// terminal runs before schedule counts this execution, so
			// the violating execution's 1-based index is Schedules+1.
			r.res.FirstBugSchedule = r.res.Schedules + 1
		}
		if r.opt.OnViolation != nil {
			r.opt.OnViolation(Witness{
				Program:  r.res.Program,
				Engine:   r.res.Engine,
				Choices:  append([]event.ThreadID(nil), c.choices...),
				Kind:     violation,
				Schedule: r.res.Schedules + 1,
				StateSig: c.m.StateSig(),
			})
		}
	}
}

// cutShort records an execution the engine stopped extending before a
// terminal state: a divergence fenced a thread, or the step bound was
// hit. Every engine's "truncated" path must route through this helper
// so the two outcomes are never conflated.
func (r *recorder) cutShort(c *cursor) {
	if c.diverged() {
		r.res.Divergences++
	} else {
		r.res.Truncated++
	}
}

// classifyWalk records one finished sampler walk: divergence first
// (a diverged machine can also have nothing enabled, which must not
// count as terminal), then step-bound truncation, else terminal.
func (r *recorder) classifyWalk(c *cursor) {
	switch {
	case c.diverged():
		r.res.Divergences++
	case c.truncated() && !c.terminal():
		r.res.Truncated++
	default:
		r.terminal(c)
	}
}

func (r *recorder) finish(c *cursor) Result {
	r.res.Events = c.events
	if r.tel != nil {
		// Final flush and snapshot, so a consumer that only reads the
		// shared Counters after the search sees the exact totals.
		r.tel.boundary(r, c, true)
	}
	if d, ok := r.dedup.(*localDedup); ok && r.opt.RecordStates {
		// With a shared Dedup the caller assembles States from
		// Dedup.SortedStates after every worker has finished.
		r.res.States = d.SortedStates()
	}
	return r.res
}

// cursor is the engines' shared execution walker: it maintains one live
// execution (machine + happens-before tracker + trace) and supports
// truncation to an earlier depth. It picks one of two backends for the
// truncation, and no option overrides the choice: the paired machine
// and tracker undo logs (O(1) per backtracked step, nothing copied per
// forward step) when the engine backtracks and the program can
// snapshot, else deterministic replay from the initial state. The
// backends are observationally identical, so the choice never changes
// a Result (pinned by TestBackendAblationExact).
type cursor struct {
	src      model.Source
	maxSteps int
	undo     bool // the undo-log backend is in use; replay otherwise
	// mcfg carries the fault-containment machine knobs (stall
	// watchdog, shared divergence hints) to every machine this cursor
	// builds. A replay-backend reset keeps the live machine's, so it
	// never re-waits a discovered divergence.
	mcfg model.MachineConfig

	m       *model.Machine
	tr      *hb.Tracker
	trace   []event.Event
	choices []event.ThreadID

	enabledBuf []event.ThreadID
	events     int64
	// backtracks counts resets to an earlier depth — one per branch
	// revisit, whatever the backend. A plain int (the cursor is
	// single-goroutine); telemetry flushes publish it as deltas.
	backtracks int64
}

// newCursor builds the cursor for the engines that backtrack (the tree
// engines and DPOR): it uses the undo logs when the machine can keep
// one, which needs snapshottable coroutines, and replay otherwise
// (goroutine-backed programs).
func newCursor(src model.Source, opt Options) *cursor {
	c := newWalkCursor(src, opt)
	if c.m.EnableUndo() {
		c.tr.EnableUndo()
		c.undo = true
	}
	return c
}

// newWalkCursor builds the replay cursor of the sampling engines
// (random, pct, pos), whose walks never backtrack mid-execution: every
// walk runs straight to its end and resets to the initial state. Replay
// is strictly cheaper there — a reset returns the machine and tracker
// to their initial state in place, reusing their storage, instead of
// paying per-step undo logging (a coroutine snapshot per event) on the
// way forward.
func newWalkCursor(src model.Source, opt Options) *cursor {
	checkThreadCount(src)
	mcfg := model.MachineConfig{StallTimeout: opt.StallTimeout}
	if mcfg.StallTimeout > 0 {
		mcfg.Hints = model.NewDivergeHints()
	}
	return &cursor{
		src:      src,
		maxSteps: opt.maxSteps(),
		mcfg:     mcfg,
		m:        model.NewMachineCfg(src, mcfg),
		tr:       hb.NewTrackerChans(src.NumThreads(), src.NumVars(), src.NumMutexes(), model.NumChannels(src)),
	}
}

func (c *cursor) depth() int { return len(c.trace) }

// enabled returns the currently enabled threads; the slice is reused by
// subsequent calls.
func (c *cursor) enabled() []event.ThreadID {
	c.enabledBuf = c.m.EnabledThreads(c.enabledBuf)
	return c.enabledBuf
}

func (c *cursor) terminal() bool { return len(c.enabled()) == 0 }

// truncated reports whether this execution must stop being extended:
// the step bound was hit, or a thread diverged (the fenced thread can
// never be stepped and the schedule is abandoned). Engines classify
// the two via recorder.cutShort/classifyWalk.
func (c *cursor) truncated() bool { return len(c.trace) >= c.maxSteps || c.m.HasDiverged() }

// diverged reports whether the live execution was fenced by the
// divergence watchdog (or a frontend diverge announcement).
func (c *cursor) diverged() bool { return c.m.HasDiverged() }

// step executes thread t and folds the event into the trackers.
func (c *cursor) step(t event.ThreadID) event.Event {
	ev := c.m.Step(t)
	c.tr.ApplyFast(ev)
	c.trace = append(c.trace, ev)
	c.choices = append(c.choices, t)
	c.events++
	// The undo backend needs no per-step work here: the machine and
	// tracker undo logs each recorded this step's reversal already.
	return ev
}

// resetTo truncates the execution back to depth d (0 ≤ d ≤ depth()).
func (c *cursor) resetTo(d int) {
	if d > len(c.trace) {
		panic(fmt.Sprintf("explore: resetTo(%d) beyond depth %d", d, len(c.trace)))
	}
	if d == len(c.trace) {
		return
	}
	c.backtracks++
	if c.undo {
		// Both undo logs rewind in place: O(1) per popped step, no
		// copies.
		c.m.UndoTo(d)
		c.tr.UndoTo(d)
	} else {
		c.m.Reset()
		c.tr.Reset()
		for i := 0; i < d; i++ {
			ev := c.m.Step(c.choices[i])
			c.tr.ApplyFast(ev)
			c.events++
		}
	}
	c.trace = c.trace[:d]
	c.choices = c.choices[:d]
}

// close releases any external resources of the live execution; the
// cursor must not be used afterwards. Only the replay backend can hold
// abortable (goroutine-backed) coroutines: the undo backend requires
// snapshottable programs, which are self-contained by construction.
func (c *cursor) close() {
	if !c.undo {
		c.m.Abort()
	}
}
