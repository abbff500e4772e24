package sct

import (
	"context"
	"fmt"
	"time"

	"repro/internal/explore"
)

// Option configures a [Run], [Grid] or [NewCampaign]. Options are
// validated when the call constructs its configuration, so an invalid
// value fails fast instead of producing a half-meaningful result.
type Option func(*config) error

// config is the compiled form of an option list; exploreOptions turns
// it into the engine-level explore.Options.
type config struct {
	scheduleLimit int
	maxSteps      int
	workers       int
	recordStates  bool
	firstBug      bool
	onViolation   func(Witness)
	stallTimeout  time.Duration
	cellTimeout   time.Duration

	// Observability (see observe.go): observer rides Run's
	// explore.Options; the heartbeat/flight knobs are campaign-runner
	// properties.
	observer       *explore.Observer
	heartbeatEvery time.Duration
	onHeartbeat    func(Heartbeat)
	flightDir      string

	// applied names every option that was set, so each construction
	// site can reject options it cannot honour instead of silently
	// dropping them.
	applied map[string]bool
}

func (c *config) mark(name string) {
	if c.applied == nil {
		c.applied = map[string]bool{}
	}
	c.applied[name] = true
}

func newConfig(opts []Option) (config, error) {
	var c config
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&c); err != nil {
			return c, fmt.Errorf("sct: %w", err)
		}
	}
	return c, nil
}

// reject errors when any of the named options was applied — the
// fail-fast half of "options are validated at construction": an
// option the call site cannot carry is a programming error, not a
// silent no-op.
func (c config) reject(site, hint string, names ...string) error {
	for _, n := range names {
		if c.applied[n] {
			return fmt.Errorf("sct: %s does not apply to %s (%s)", n, site, hint)
		}
	}
	return nil
}

func (c config) exploreOptions(ctx context.Context) explore.Options {
	return explore.Options{
		ScheduleLimit:  c.scheduleLimit,
		MaxSteps:       c.maxSteps,
		RecordStates:   c.recordStates,
		StopAtFirstBug: c.firstBug,
		OnViolation:    c.onViolation,
		StallTimeout:   c.stallTimeout,
		Observer:       c.observer,
		Ctx:            ctx,
	}
}

// WithScheduleLimit stops exploration after n executions. 0 (the
// default) means unlimited; the paper's evaluation uses 100,000.
func WithScheduleLimit(n int) Option {
	return func(c *config) error {
		c.mark("WithScheduleLimit")
		if n < 0 {
			return fmt.Errorf("negative schedule limit %d", n)
		}
		c.scheduleLimit = n
		return nil
	}
}

// WithBounds sets both exploration budgets at once: the schedule
// limit (0 = unlimited) and the per-execution event bound (0 = the
// executor default; executions hitting it count as truncated).
func WithBounds(scheduleLimit, maxSteps int) Option {
	return func(c *config) error {
		c.mark("WithBounds")
		if scheduleLimit < 0 {
			return fmt.Errorf("negative schedule limit %d", scheduleLimit)
		}
		if maxSteps < 0 {
			return fmt.Errorf("negative step bound %d", maxSteps)
		}
		c.scheduleLimit = scheduleLimit
		c.maxSteps = maxSteps
		return nil
	}
}

// WithWorkers sets how many campaign cells run concurrently
// ([NewCampaign]'s worker pool). n <= 0 (the default) uses all cores.
// Single-search parallelism is an engine property instead: spell it
// in the engine spec ("pdpor:8").
func WithWorkers(n int) Option {
	return func(c *config) error {
		c.mark("WithWorkers")
		if n < 0 {
			n = 0
		}
		c.workers = n
		return nil
	}
}

// WithRecordStates retains the sorted distinct terminal state keys in
// the result — a cross-engine agreement diagnostic, costly on large
// spaces.
func WithRecordStates() Option {
	return func(c *config) error {
		c.mark("WithRecordStates")
		c.recordStates = true
		return nil
	}
}

// StopAtFirstBug stops the search the moment a terminal execution
// exhibits a safety violation; Result.FirstBugSchedule then reports
// the paper's schedules-to-first-bug metric.
func StopAtFirstBug() Option {
	return func(c *config) error {
		c.mark("StopAtFirstBug")
		c.firstBug = true
		return nil
	}
}

// WithStallTimeout arms the divergence watchdog: a thread whose next
// visible operation does not materialise within d of wall-clock time
// is fenced as diverged, the execution is classified under
// Result.Divergences, and exploration of the remaining schedule space
// continues. 0 (the default) disables the watchdog — a genuinely
// diverging thread then hangs the search, exactly as before.
//
// The watchdog matters only for frontends whose thread bodies run
// real code on goroutines (goharness); interpreter frontends
// (progdsl) announce divergence deterministically and need no timer.
// Divergence points are memoised, so each distinct stuck point costs
// the timeout once no matter how many schedules revisit it.
func WithStallTimeout(d time.Duration) Option {
	return func(c *config) error {
		c.mark("WithStallTimeout")
		if d < 0 {
			return fmt.Errorf("negative stall timeout %v", d)
		}
		c.stallTimeout = d
		return nil
	}
}

// WithCellTimeout bounds each campaign cell to d of wall-clock time
// ([NewCampaign] only). A cell that exceeds it is cancelled and
// reported as a structured per-cell error carrying the partial
// counters; an engine that also ignores cancellation is
// abandoned on a watchdog goroutine so the campaign itself always
// survives. 0 (the default) means no per-cell deadline.
func WithCellTimeout(d time.Duration) Option {
	return func(c *config) error {
		c.mark("WithCellTimeout")
		if d < 0 {
			return fmt.Errorf("negative cell timeout %v", d)
		}
		c.cellTimeout = d
		return nil
	}
}

// OnViolation invokes fn for every violating terminal execution, with
// a self-contained witness. Parallel searches call it from multiple
// goroutines concurrently; fn must synchronise internally.
func OnViolation(fn func(Witness)) Option {
	return func(c *config) error {
		c.mark("OnViolation")
		if fn == nil {
			return fmt.Errorf("nil OnViolation callback")
		}
		c.onViolation = fn
		return nil
	}
}
