// Package campaign batches schedule-exploration work the way the
// paper's evaluation does: a campaign is a grid of (benchmark, engine)
// cells, and the runner executes independent cells concurrently across
// a worker pool, streaming one JSON-serialisable result per cell as it
// completes. The package also provides the parallel single-search
// engine (parallel.go, steal.go) that spreads one benchmark's DPOR
// search across the same worker budget.
package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
)

// Cell is one unit of campaign work: a benchmark explored by one
// engine configuration.
type Cell struct {
	// Bench names a corpus benchmark (bench.ByName).
	Bench string `json:"bench"`
	// Engine is the engine configuration to run.
	Engine EngineSpec `json:"engine"`
	// ScheduleLimit and MaxSteps mirror explore.Options; zero values
	// keep the engine defaults.
	ScheduleLimit int `json:"schedule_limit,omitempty"`
	MaxSteps      int `json:"max_steps,omitempty"`
	// RecordStates retains the distinct terminal state keys in the
	// result (costly on large spaces).
	RecordStates bool `json:"record_states,omitempty"`
	// StopAtFirstBug runs the cell in bug-finding mode: the engine
	// stops at the first terminal violation and the result's
	// FirstBugSchedule reports the schedules-to-first-bug metric.
	StopAtFirstBug bool `json:"stop_at_first_bug,omitempty"`
	// StallTimeoutMS arms the divergence watchdog
	// (explore.Options.StallTimeout) for this cell, in milliseconds —
	// an int64 rather than a time.Duration so Cell stays a plain
	// comparable JSON value. 0 disables the watchdog.
	StallTimeoutMS int64 `json:"stall_timeout_ms,omitempty"`
}

// CellResult is one completed cell, the unit of the runner's streaming
// JSON output.
type CellResult struct {
	// Index is the cell's position in the campaign, so consumers of
	// the completion-ordered stream can restore input order.
	Index int  `json:"index"`
	Cell  Cell `json:"cell"`
	// Result is the exploration summary; meaningful when Err is
	// empty.
	Result explore.Result `json:"result"`
	// ElapsedMS is the cell's wall-clock cost in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Cancelled marks a cell the campaign context ended: either
	// mid-cell — Result then holds the partial counters the engine
	// had accumulated (Result.Interrupted is set) — or before the
	// cell started, in which case Result is empty. Either way the
	// cell is flushed to the stream instead of silently dropped, so a
	// consumer can tell "never ran" from "ran partially" from "done".
	Cancelled bool `json:"cancelled,omitempty"`
	// FlightPath is where the cell's flight-recorder artifact was
	// dumped; set only for failed cells under a Runner with FlightDir.
	FlightPath string `json:"flight,omitempty"`
	// Err describes a cell-level failure (unknown benchmark, bad
	// engine spec, invalid options, invariant violation, engine
	// panic, cell deadline). A cell with Err set is quarantined: its
	// failure is contained and reported without poisoning the rest of
	// the campaign.
	Err string `json:"error,omitempty"`
}

// Runner executes campaign cells concurrently, each exactly once:
// exploration is deterministic, so a failing cell would fail the same
// way again. The zero value runs every cell with no deadline;
// CellTimeout is opt-in per campaign.
type Runner struct {
	// Workers is the number of cells explored concurrently; <= 0
	// uses GOMAXPROCS.
	Workers int
	// OnResult, when non-nil, receives each cell result as it
	// completes (serialised; completion order). Use JSONLWriter to
	// stream results as JSON lines.
	OnResult func(CellResult)

	// OnHeartbeat, when non-nil, receives periodic liveness records
	// for every in-flight cell (see Heartbeat). Heartbeats are
	// serialised with OnResult on the same lock, so pointing
	// HeartbeatJSONL and JSONLWriter at one stream yields interleaved
	// but line-atomic output; ReadJSONL and resume skip the heartbeat
	// lines.
	OnHeartbeat func(Heartbeat)
	// HeartbeatEvery is the heartbeat cadence; <= 0 uses
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration

	// FlightDir, when non-empty, arms a flight recorder on every cell
	// and dumps a FlightArtifact (recent schedule prefixes, timings,
	// final counters) into this directory whenever a cell fails —
	// quarantine, cell timeout or engine panic. Healthy cells dump
	// nothing.
	FlightDir string

	// CellTimeout bounds each cell's wall clock. A cell that exceeds
	// it is interrupted through its context; one whose engine also
	// ignores the interrupt past abandonGrace has its goroutine
	// abandoned. Either way the cell completes with a structured Err
	// (and any partial counters the engine surrendered) and the rest
	// of the campaign proceeds. 0 means no per-cell deadline.
	CellTimeout time.Duration
}

// abandonGrace is how long a cancelled engine gets to observe its
// context and return partial counters before its goroutine is
// abandoned.
const abandonGrace = 250 * time.Millisecond

// Run executes every cell, respecting ctx (nil means background), and
// returns the results in input order. Cell-level failures are reported
// in CellResult.Err, not as an error; the returned error is non-nil
// only when ctx ended the campaign early. OnResult, when set, still
// sees every result as it completes.
func (r *Runner) Run(ctx context.Context, cells []Cell) ([]CellResult, error) {
	out := make([]CellResult, len(cells))
	collect := *r
	collect.OnResult = func(res CellResult) {
		out[res.Index] = res
		if r.OnResult != nil {
			r.OnResult(res)
		}
	}
	err := collect.Stream(ctx, cells)
	return out, err
}

// Stream executes every cell like Run but keeps no results: each one
// goes to OnResult only, so a caller that consumes the stream holds no
// campaign-sized result slice.
func (r *Runner) Stream(ctx context.Context, cells []Cell) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var emitMu sync.Mutex
	// Heartbeats share the emit lock with results so a JSONL stream
	// carrying both stays line-atomic.
	emitHB := func(h Heartbeat) {
		if r.OnHeartbeat == nil {
			return
		}
		emitMu.Lock()
		r.OnHeartbeat(h)
		emitMu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(cells); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				var res CellResult
				if ctx.Err() != nil {
					// The campaign was cancelled before this cell
					// started: flush a marker line rather than leaving
					// a hole in the stream and a zero value in the
					// returned slice.
					res = CellResult{Index: i, Cell: cells[i], Cancelled: true}
				} else {
					res = r.runCell(ctx, i, cells[i], emitHB)
				}
				if r.OnResult != nil {
					emitMu.Lock()
					r.OnResult(res)
					emitMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// runCell executes one cell with fault containment: the engine runs
// once, in its own goroutine under the cell deadline, a panic is
// recovered into a structured error, and a hung engine is abandoned
// rather than hanging the worker. The named return lets the deferred
// timing write reach the caller.
func (r *Runner) runCell(ctx context.Context, index int, c Cell, emitHB func(Heartbeat)) (out CellResult) {
	out = CellResult{Index: index, Cell: c}
	start := time.Now()
	defer func() { out.ElapsedMS = time.Since(start).Milliseconds() }()

	bm, ok := bench.ByName(c.Bench)
	if !ok {
		out.Err = fmt.Sprintf("unknown benchmark %q", c.Bench)
		return out
	}
	eng, err := c.Engine.Build()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	opt := explore.Options{
		ScheduleLimit:  c.ScheduleLimit,
		MaxSteps:       c.MaxSteps,
		RecordStates:   c.RecordStates,
		StopAtFirstBug: c.StopAtFirstBug,
		StallTimeout:   time.Duration(c.StallTimeoutMS) * time.Millisecond,
	}
	if err := opt.Validate(); err != nil {
		out.Err = err.Error()
		return out
	}

	// Telemetry: heartbeats and the flight recorder both hang off a
	// per-cell counter set the engine publishes into at schedule
	// boundaries. Counters and the flight ring stay safe to read even
	// if an abandoned engine goroutine is still running behind a
	// dumped artifact.
	var ctr *explore.Counters
	var flight *explore.FlightRecorder
	if r.OnHeartbeat != nil || r.FlightDir != "" {
		ctr = explore.NewCounters()
		opt.Counters = ctr
	}
	if r.FlightDir != "" {
		flight = explore.NewFlightRecorder(0)
		opt.Flight = flight
		defer func() {
			if out.Err != "" {
				dumpFlight(r.FlightDir, &out, ctr, flight)
			}
		}()
	}
	if r.OnHeartbeat != nil {
		every := r.HeartbeatEvery
		if every <= 0 {
			every = DefaultHeartbeatEvery
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		// Join, don't just signal: once runCell returns, no heartbeat
		// for this cell may still be in flight — every heartbeat
		// happens before the cell's result, and none can outlive
		// Runner.Stream.
		defer func() { close(stop); <-done }()
		go func() {
			defer close(done)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					emitHB(makeHeartbeat(index, c, ctr, start))
				}
			}
		}()
	}

	cellCtx := ctx
	if r.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, r.CellTimeout)
		defer cancel()
	}
	opt.Ctx = cellCtx
	type outcome struct {
		res explore.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				done <- outcome{err: fmt.Errorf("engine panic: %v", rec)}
			}
		}()
		done <- outcome{res: eng.Explore(bm.Program, opt)}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-cellCtx.Done():
		// Deadline or campaign cancellation: give the engine the grace
		// window to observe its context and surrender partial counters.
		timer := time.NewTimer(abandonGrace)
		defer timer.Stop()
		select {
		case o = <-done:
		case <-timer.C:
			// The engine ignored its cancelled context: abandon its
			// goroutine (it parks forever or burns a leaked thread —
			// contained either way) and fail the cell structurally.
			o.err = fmt.Errorf("campaign: cell exceeded its deadline and ignored cancellation for %v; engine goroutine abandoned", abandonGrace)
		}
	}

	out.Result = o.res
	switch {
	case o.err != nil:
		out.Err = o.err.Error()
		out.Cancelled = ctx.Err() != nil
	case o.res.Interrupted && ctx.Err() == nil && cellCtx.Err() != nil:
		// The per-cell deadline (not the campaign context) interrupted
		// the engine: a structured cell failure carrying the partial
		// counters.
		out.Err = fmt.Sprintf("campaign: cell timeout after %v (partial result: %d schedules)", r.CellTimeout, o.res.Schedules)
	case o.res.Interrupted:
		// Mid-cell campaign cancellation: keep the partial counters
		// but mark the cell so downstream analysis never mistakes them
		// for a finished exploration.
		out.Cancelled = true
	default:
		if err := o.res.CheckInvariant(); err != nil {
			out.Err = err.Error()
		}
	}
	return out
}

// Quarantine returns the failed cells (Err set) in input order — the
// campaign's quarantine report: every cell here was contained (its
// fault did not stop the campaign) but needs attention.
func Quarantine(results []CellResult) []CellResult {
	var out []CellResult
	for _, r := range results {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// Grid builds the cell cross product of benchmarks × engine specs.
func Grid(benches []string, engines []EngineSpec, scheduleLimit, maxSteps int) []Cell {
	cells := make([]Cell, 0, len(benches)*len(engines))
	for _, b := range benches {
		for _, e := range engines {
			cells = append(cells, Cell{
				Bench:         b,
				Engine:        e,
				ScheduleLimit: scheduleLimit,
				MaxSteps:      maxSteps,
			})
		}
	}
	return cells
}

// FirstError returns the first cell failure in input order, or nil.
func FirstError(results []CellResult) error {
	for _, r := range results {
		if r.Err != "" {
			return fmt.Errorf("campaign: %s/%s: %s", r.Cell.Bench, r.Cell.Engine, r.Err)
		}
	}
	return nil
}

// JSONLWriter returns an OnResult callback that streams each cell
// result as one JSON line to w. Each line is flushed — and, when w can
// sync (an *os.File), fsynced — as it is written, so a campaign killed
// mid-run leaves every completed cell durable on disk with at most the
// in-flight line truncated (which ReadJSONL tolerates).
func JSONLWriter(w io.Writer) func(CellResult) {
	enc := json.NewEncoder(w)
	return func(r CellResult) {
		_ = enc.Encode(r)
		if f, ok := w.(interface{ Flush() error }); ok {
			_ = f.Flush()
		}
		if s, ok := w.(interface{ Sync() error }); ok {
			_ = s.Sync()
		}
	}
}

// ErrTruncatedTail reports that a JSONL result stream ended in a
// partial line — the signature of a campaign killed mid-write. The
// complete prefix is still returned; errors.Is distinguishes this
// recoverable truncation from mid-stream corruption.
var ErrTruncatedTail = errors.New("campaign: result stream ends in a truncated line")

// IsTelemetryLine reports whether a JSONL line is a typed telemetry
// record (heartbeat, progress) rather than a cell result: cell-result
// lines never carry a top-level "type" field. Telemetry lines are
// skipped by ReadJSONL and checkpoint resume, so a stream carrying
// both stays resumable.
func IsTelemetryLine(line []byte) bool {
	var probe struct {
		Type string `json:"type"`
	}
	return json.Unmarshal(line, &probe) == nil && probe.Type != ""
}

// ReadJSONL consumes a stream of JSON-line cell results, e.g. the
// output of a `eval -fig campaign -json` run. A stream whose final
// line is cut short (the writer was killed mid-write) returns every
// complete result together with an error wrapping ErrTruncatedTail; a
// bad line followed by further results is corruption and fails hard.
// Typed telemetry lines (heartbeats) sharing the stream are skipped.
func ReadJSONL(r io.Reader) ([]CellResult, error) {
	var out []CellResult
	var tailErr error
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if tailErr != nil {
			// The bad line was not the stream's tail after all.
			return nil, tailErr
		}
		if IsTelemetryLine(line) {
			continue
		}
		var res CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			tailErr = fmt.Errorf("campaign: bad result line: %w", err)
			continue
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tailErr != nil {
		return out, fmt.Errorf("%d complete results, then %v: %w", len(out), tailErr, ErrTruncatedTail)
	}
	return out, nil
}
