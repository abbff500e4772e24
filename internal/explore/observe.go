package explore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Counters is the lock-free telemetry surface of a running search.
// Pass one through Options.Counters to watch an exploration live: the
// recorder publishes deltas at every schedule boundary with atomic
// adds, so a single Counters instance shared by the workers of a
// parallel search (or the rounds of an iterative engine) accumulates
// the aggregate totals without locks. Readers snapshot at any time
// with Snapshot; values are monotone (MaxDepth and Backend are
// latched, everything else only grows).
//
// Counters are pure telemetry: they never feed back into exploration,
// so arming them cannot change a Result (pinned by
// TestObserverDoesNotPerturbResults).
type Counters struct {
	// Schedules counts executions performed (terminal, pruned,
	// truncated, sleep-blocked or diverged); the per-outcome counters
	// below partition it. SleepBlocked is the sleep-set prune
	// counter: executions abandoned because every enabled thread
	// slept.
	Schedules    atomic.Int64
	Terminals    atomic.Int64
	Pruned       atomic.Int64
	Truncated    atomic.Int64
	SleepBlocked atomic.Int64
	Divergences  atomic.Int64

	// Events counts every event executed, including replays;
	// Backtracks counts cursor resets to an earlier depth (one per
	// branch revisit, whatever the backend).
	Events     atomic.Int64
	Backtracks atomic.Int64

	// DedupHits and DedupMisses count terminal-execution fingerprint
	// probes (HBR, lazy HBR and state digest — three per terminal)
	// that found, respectively missed, an already-known value. A high
	// hit rate means the search is revisiting covered equivalence
	// classes.
	DedupHits   atomic.Int64
	DedupMisses atomic.Int64

	// DivergeHintHits counts threads fenced immediately from a
	// memoised divergence point instead of re-waiting the watchdog.
	DivergeHintHits atomic.Int64

	// StealSent counts work units shipped to the steal queue by
	// donation or escape; StealReceived counts units workers picked
	// up. Zero outside work-stealing parallel searches.
	StealSent     atomic.Int64
	StealReceived atomic.Int64

	// MaxDepth latches the deepest execution seen.
	MaxDepth atomic.Int64

	// backend latches the resolved BackendKind + 1 once a cursor
	// commits to one (0 = not yet resolved).
	backend atomic.Int32
}

// NewCounters returns a zeroed counter set ready to share.
func NewCounters() *Counters { return &Counters{} }

// setBackend latches the resolved backend (idempotent; the workers of
// a parallel search all resolve to the same kind).
func (c *Counters) setBackend(b BackendKind) {
	c.backend.Store(int32(b) + 1)
}

// Backend returns the resolved backend name, or "" before the first
// cursor has published progress.
func (c *Counters) Backend() string {
	v := c.backend.Load()
	if v == 0 {
		return ""
	}
	return BackendKind(v - 1).String()
}

// maxDepth latches d into MaxDepth.
func (c *Counters) maxDepth(d int64) {
	for {
		cur := c.MaxDepth.Load()
		if d <= cur || c.MaxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Snapshot reads every counter at one (not mutually atomic) instant.
// Program, Engine and Elapsed are left for the caller to fill.
func (c *Counters) Snapshot() Progress {
	return Progress{
		Schedules:       c.Schedules.Load(),
		Terminals:       c.Terminals.Load(),
		Pruned:          c.Pruned.Load(),
		Truncated:       c.Truncated.Load(),
		SleepBlocked:    c.SleepBlocked.Load(),
		Divergences:     c.Divergences.Load(),
		Events:          c.Events.Load(),
		Backtracks:      c.Backtracks.Load(),
		DedupHits:       c.DedupHits.Load(),
		DedupMisses:     c.DedupMisses.Load(),
		DivergeHintHits: c.DivergeHintHits.Load(),
		StealSent:       c.StealSent.Load(),
		StealReceived:   c.StealReceived.Load(),
		MaxDepth:        c.MaxDepth.Load(),
		Backend:         c.Backend(),
	}
}

// Progress is one point-in-time snapshot of a running search — the
// value Observer.OnProgress receives and docs/OBSERVABILITY.md's
// counter catalogue documents (the doc-sync test pins the two to each
// other). Counter fields mirror Counters; see there for semantics.
type Progress struct {
	// Program and Engine identify the search instance delivering the
	// snapshot.
	Program string `json:"program,omitempty"`
	Engine  string `json:"engine,omitempty"`

	Schedules       int64 `json:"schedules"`
	Terminals       int64 `json:"terminals"`
	Pruned          int64 `json:"pruned"`
	Truncated       int64 `json:"truncated"`
	SleepBlocked    int64 `json:"sleep_blocked"`
	Divergences     int64 `json:"divergences"`
	Events          int64 `json:"events"`
	Backtracks      int64 `json:"backtracks"`
	DedupHits       int64 `json:"dedup_hits"`
	DedupMisses     int64 `json:"dedup_misses"`
	DivergeHintHits int64 `json:"diverge_hint_hits"`
	StealSent       int64 `json:"steal_sent"`
	StealReceived   int64 `json:"steal_received"`
	MaxDepth        int64 `json:"max_depth"`

	// Backend is the resolved backtracking backend ("undo" or
	// "replay"), or "" before the first progress flush.
	Backend string `json:"backend,omitempty"`

	// Elapsed is the wall clock since the delivering search started.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// Observer delivers periodic Progress snapshots from a running search
// through Options.Observer. Delivery happens at schedule boundaries
// on the engine's own goroutine — whenever EverySchedules schedules
// or Every wall-clock time passed since the last snapshot, whichever
// fires first — plus one final snapshot when the search finishes. A
// nil Observer costs one predicted branch per schedule and nothing
// else; an armed one never changes counters (snapshots are reads).
//
// In a parallel search each worker delivers its own snapshots; wiring
// the same Options.Counters into the search makes every snapshot
// carry the shared aggregate totals.
type Observer struct {
	// EverySchedules delivers a snapshot every n schedules;
	// <= 0 uses DefaultObserverSchedules.
	EverySchedules int
	// Every delivers a snapshot when this much wall clock passed
	// since the last one; <= 0 uses DefaultObserverInterval.
	Every time.Duration
	// OnProgress receives the snapshots; required. Parallel searches
	// invoke it from multiple goroutines — it must synchronise
	// internally.
	OnProgress func(Progress)
}

// Observer cadence defaults; see the Observer fields.
const (
	DefaultObserverSchedules = 1024
	DefaultObserverInterval  = time.Second
)

// FlightEntry is one recent execution retained by a FlightRecorder:
// the schedule prefix (complete choice sequence) of the execution,
// its outcome and timing.
type FlightEntry struct {
	// Schedule is the execution's 1-based index within the recording
	// search instance.
	Schedule int64 `json:"schedule"`
	// Outcome classifies the execution: "terminal", "pruned",
	// "truncated", "sleep-blocked" or "diverged".
	Outcome string `json:"outcome"`
	// Violation names the safety violation this execution exhibited
	// ("deadlock", "assertion failure", ...); empty for clean ones.
	Violation string `json:"violation,omitempty"`
	// Depth is the execution's length in events; Choices is the full
	// schedule (thread chosen at each step).
	Depth   int              `json:"depth"`
	Choices []event.ThreadID `json:"choices"`
	// SinceStartMS is when the execution finished, in milliseconds
	// since the recorder first saw the search.
	SinceStartMS int64 `json:"since_start_ms"`
}

// FlightRecorder keeps a bounded ring of the most recent executions a
// search performed — the flight-recorder tape the campaign runner
// dumps next to the repro dir when a cell is quarantined, times out
// or panics, turning a one-line Err into a debuggable trace. Arm one
// through Options.Flight; it is safe for concurrent recorders (the
// workers of a parallel search) and for Snapshot readers at any time.
type FlightRecorder struct {
	mu      sync.Mutex
	start   time.Time
	entries []FlightEntry
	next    int
	wrapped bool
}

// DefaultFlightEntries is the ring capacity NewFlightRecorder(0)
// uses.
const DefaultFlightEntries = 64

// NewFlightRecorder returns a flight recorder retaining the last
// capacity executions (DefaultFlightEntries if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEntries
	}
	return &FlightRecorder{entries: make([]FlightEntry, 0, capacity)}
}

// record appends one finished execution, evicting the oldest entry
// once the ring is full. choices is a view into engine state and is
// copied here.
func (f *FlightRecorder) record(schedule int64, outcome, violation string, choices []event.ThreadID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	if f.start.IsZero() {
		f.start = now
	}
	e := FlightEntry{
		Schedule:     schedule,
		Outcome:      outcome,
		Violation:    violation,
		Depth:        len(choices),
		Choices:      append([]event.ThreadID(nil), choices...),
		SinceStartMS: now.Sub(f.start).Milliseconds(),
	}
	if len(f.entries) < cap(f.entries) {
		f.entries = append(f.entries, e)
		return
	}
	f.entries[f.next] = e
	f.next = (f.next + 1) % len(f.entries)
	f.wrapped = true
}

// Snapshot returns the retained executions, oldest first.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.wrapped {
		// Still filling: entries are in append order and next is unused.
		return append([]FlightEntry(nil), f.entries...)
	}
	out := make([]FlightEntry, 0, len(f.entries))
	out = append(out, f.entries[f.next:]...)
	return append(out, f.entries[:f.next]...)
}

// telemetry is the recorder's observation state, allocated only when
// Options arms Counters, an Observer or a FlightRecorder — the nil
// check in recorder.schedule is the entire disabled-path cost.
type telemetry struct {
	ctr    *Counters
	obs    *Observer
	flight *FlightRecorder
	start  time.Time

	// flushed holds the Result-derived values already published to
	// ctr, so each schedule boundary adds only this recorder's deltas
	// and shared Counters aggregate correctly across workers.
	flushed struct {
		schedules, terminals, pruned, truncated int
		sleepBlocked, divergences               int
		events                                  int64
		backtracks                              int64
		dedupHits, dedupMisses                  int64
		hintHits                                int64
		maxDepth                                int
	}

	// dedupHits/dedupMisses accumulate the recorder's local probe
	// counts (plain ints: the recorder is single-goroutine).
	dedupHits, dedupMisses int64

	// violation carries a just-recorded violating terminal's kind
	// from recorder.terminal to the flight entry written at the
	// following schedule boundary.
	violation string
	// prev remembers the outcome counters at the last schedule
	// boundary so the boundary can classify which outcome the
	// finished execution had without any per-engine plumbing.
	prev struct {
		terminals, pruned, truncated, sleepBlocked, divergences int
	}

	// observer cadence state.
	everyN     int
	everyD     time.Duration
	lastSched  int
	lastSnap   time.Time
	obsProgram string
	obsEngine  string
}

// newTelemetry builds the recorder's observation state, or returns
// nil when opt arms nothing.
func newTelemetry(opt Options, program, engine string) *telemetry {
	if opt.Counters == nil && opt.Observer == nil && opt.Flight == nil {
		return nil
	}
	t := &telemetry{
		ctr:        opt.Counters,
		obs:        opt.Observer,
		flight:     opt.Flight,
		start:      time.Now(),
		obsProgram: program,
		obsEngine:  engine,
	}
	if t.obs != nil {
		if t.ctr == nil {
			// Snapshots read from Counters; an observer without a
			// caller-supplied set gets a private one.
			t.ctr = NewCounters()
		}
		t.everyN = t.obs.EverySchedules
		if t.everyN <= 0 {
			t.everyN = DefaultObserverSchedules
		}
		t.everyD = t.obs.Every
		if t.everyD <= 0 {
			t.everyD = DefaultObserverInterval
		}
		t.lastSnap = t.start
	}
	return t
}

// boundary runs at every schedule boundary (and once more at finish):
// it writes the flight entry for the just-finished execution, flushes
// counter deltas, and delivers a due Progress snapshot.
func (t *telemetry) boundary(r *recorder, c *cursor, final bool) {
	res := &r.res
	if t.flight != nil && !final {
		outcome := ""
		switch {
		case res.Terminals > t.prev.terminals:
			outcome = "terminal"
		case res.Pruned > t.prev.pruned:
			outcome = "pruned"
		case res.Truncated > t.prev.truncated:
			outcome = "truncated"
		case res.SleepBlocked > t.prev.sleepBlocked:
			outcome = "sleep-blocked"
		case res.Divergences > t.prev.divergences:
			outcome = "diverged"
		}
		t.prev.terminals = res.Terminals
		t.prev.pruned = res.Pruned
		t.prev.truncated = res.Truncated
		t.prev.sleepBlocked = res.SleepBlocked
		t.prev.divergences = res.Divergences
		if outcome != "" {
			t.flight.record(int64(res.Schedules), outcome, t.violation, c.choices)
		}
		t.violation = ""
	}
	if t.ctr != nil {
		t.flush(r, c)
	}
	if t.obs != nil {
		now := time.Now()
		if final || res.Schedules-t.lastSched >= t.everyN || now.Sub(t.lastSnap) >= t.everyD {
			t.lastSched = res.Schedules
			t.lastSnap = now
			p := t.ctr.Snapshot()
			p.Program = t.obsProgram
			p.Engine = t.obsEngine
			p.Elapsed = now.Sub(t.start)
			t.obs.OnProgress(p)
		}
	}
}

// flush publishes the recorder's progress since the last boundary as
// atomic deltas.
func (t *telemetry) flush(r *recorder, c *cursor) {
	f := &t.flushed
	res := &r.res
	addInt := func(ctr *atomic.Int64, cur int, prev *int) {
		if d := cur - *prev; d != 0 {
			ctr.Add(int64(d))
			*prev = cur
		}
	}
	add64 := func(ctr *atomic.Int64, cur int64, prev *int64) {
		if d := cur - *prev; d != 0 {
			ctr.Add(d)
			*prev = cur
		}
	}
	addInt(&t.ctr.Schedules, res.Schedules, &f.schedules)
	addInt(&t.ctr.Terminals, res.Terminals, &f.terminals)
	addInt(&t.ctr.Pruned, res.Pruned, &f.pruned)
	addInt(&t.ctr.Truncated, res.Truncated, &f.truncated)
	addInt(&t.ctr.SleepBlocked, res.SleepBlocked, &f.sleepBlocked)
	addInt(&t.ctr.Divergences, res.Divergences, &f.divergences)
	if c != nil {
		add64(&t.ctr.Events, c.events, &f.events)
		add64(&t.ctr.Backtracks, c.backtracks, &f.backtracks)
		if res.MaxDepth > f.maxDepth {
			f.maxDepth = res.MaxDepth
			t.ctr.maxDepth(int64(res.MaxDepth))
		}
		if hints := c.mcfg.Hints; hints != nil {
			add64(&t.ctr.DivergeHintHits, hints.Hits(), &f.hintHits)
		}
		t.ctr.setBackend(c.backend)
	}
	add64(&t.ctr.DedupHits, t.dedupHits, &f.dedupHits)
	add64(&t.ctr.DedupMisses, t.dedupMisses, &f.dedupMisses)
}

// validateObservability checks the telemetry options; part of
// Options.Validate.
func (o Options) validateObservability() error {
	if o.Observer != nil {
		if o.Observer.OnProgress == nil {
			return fmt.Errorf("explore: Observer with nil OnProgress")
		}
		if o.Observer.EverySchedules < 0 {
			return fmt.Errorf("explore: negative Observer.EverySchedules %d", o.Observer.EverySchedules)
		}
		if o.Observer.Every < 0 {
			return fmt.Errorf("explore: negative Observer.Every %v", o.Observer.Every)
		}
	}
	return nil
}
