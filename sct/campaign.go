package sct

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
)

// EngineSpec names an engine configuration in the registry's compact
// colon grammar ("dpor+sleep", "pb:2", "pdpor:4") — the form
// campaign cells carry.
type EngineSpec = campaign.EngineSpec

// Cell is one unit of campaign work: a named benchmark explored by
// one engine spec under explicit bounds. Build grids with [Grid] or
// literally.
type Cell = campaign.Cell

// CellResult is one completed cell — the unit of the campaign's
// streaming output and of its JSONL checkpoint format.
type CellResult = campaign.CellResult

// ParseSpecs splits a comma-separated engine list ("dpor, pb:2,
// pdpor:4") and validates every entry against the registry — the
// flag-grammar front end of [Grid].
func ParseSpecs(list string) ([]string, error) {
	var out []string
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if _, err := NewEngine(f); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sct: empty engine list %q", list)
	}
	return out, nil
}

// Grid builds the (benchmark × engine) cell cross product. Engine
// specs are validated against the registry up front; the options set
// the per-cell bounds ([WithScheduleLimit], [WithBounds]) and modes
// ([StopAtFirstBug], [WithRecordStates]).
func Grid(benches, engineSpecs []string, opts ...Option) ([]Cell, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.reject("Grid", "campaign cells cannot carry it",
		"OnViolation", "WithWorkers"); err != nil {
		return nil, err
	}
	if err := cfg.reject("Grid", "containment is a runner property: pass it to NewCampaign",
		"WithCellTimeout"); err != nil {
		return nil, err
	}
	if err := cfg.reject("Grid", "observability is a runner property: pass WithHeartbeat/WithFlightRecorder to NewCampaign (WithObserver is Run-only)",
		"WithObserver", "WithHeartbeat", "WithFlightRecorder"); err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, errors.New("sct: Grid with no benchmarks")
	}
	if len(engineSpecs) == 0 {
		return nil, errors.New("sct: Grid with no engine specs")
	}
	specs := make([]campaign.EngineSpec, len(engineSpecs))
	for i, s := range engineSpecs {
		if _, err := NewEngine(s); err != nil {
			return nil, err
		}
		specs[i] = campaign.EngineSpec(s)
	}
	cells := campaign.Grid(benches, specs, cfg.scheduleLimit, cfg.maxSteps)
	if cfg.firstBug || cfg.recordStates || cfg.stallTimeout > 0 {
		// Cells carry the stall timeout in whole milliseconds (the
		// serialisable checkpoint unit); round sub-millisecond values
		// up so "armed" can never silently become "disarmed".
		ms := cfg.stallTimeout.Milliseconds()
		if cfg.stallTimeout > 0 && ms == 0 {
			ms = 1
		}
		for i := range cells {
			cells[i].StopAtFirstBug = cfg.firstBug
			cells[i].RecordStates = cfg.recordStates
			cells[i].StallTimeoutMS = ms
		}
	}
	return cells, nil
}

// Campaign executes a grid of cells across a worker pool, streaming
// each finished cell through [Campaign.Results]. A campaign is
// single-shot: build it, optionally [Campaign.Resume] from a saved
// stream, iterate Results once.
type Campaign struct {
	cells   []Cell
	skip    []bool // cells satisfied by Resume
	resumed []CellResult
	cfg     config
	ran     atomic.Bool
	err     error
}

// NewCampaign validates every cell (engine spec and option
// combination) and prepares a campaign over them. [WithWorkers]
// bounds how many cells run concurrently.
func NewCampaign(cells []Cell, opts ...Option) (*Campaign, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.reject("NewCampaign", "set per-cell options on the cells via Grid",
		"WithScheduleLimit", "WithBounds", "WithRecordStates",
		"StopAtFirstBug", "OnViolation", "WithStallTimeout"); err != nil {
		return nil, err
	}
	if err := cfg.reject("NewCampaign", "per-run progress snapshots apply to Run; campaigns observe through WithHeartbeat",
		"WithObserver"); err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, errors.New("sct: campaign with no cells")
	}
	for _, c := range cells {
		if _, err := c.Engine.Build(); err != nil {
			return nil, fmt.Errorf("sct: cell %s/%s: %w", c.Bench, c.Engine, err)
		}
	}
	return &Campaign{
		cells: append([]Cell(nil), cells...),
		skip:  make([]bool, len(cells)),
		cfg:   cfg,
	}, nil
}

// Resume reads a (possibly partial) JSONL result stream — the
// checkpoint a previous run of the same grid left behind — and marks
// every cell it already completed as done, so [Campaign.Results]
// re-runs only the rest. Cells that were cancelled mid-run or failed
// are re-run, and unparseable lines are skipped rather than fatal: a
// run killed mid-write leaves a truncated final line, and resume
// exists precisely for that crash (the affected cells simply run
// again). Resume may be called multiple times (e.g. one file per
// previous run) and returns how many cells this stream satisfied.
//
// The skipped cells' recorded results stay available through
// [Campaign.Resumed], re-indexed to their position in this campaign's
// grid.
func (c *Campaign) Resume(r io.Reader) (int, error) {
	byCell := map[Cell]CellResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || campaign.IsTelemetryLine(line) {
			continue
		}
		var res CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			continue // truncated or corrupt checkpoint line
		}
		if res.Err == "" && !res.Cancelled {
			byCell[res.Cell] = res
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("sct: resume: %w", err)
	}
	n := 0
	for i, cell := range c.cells {
		if c.skip[i] {
			continue
		}
		if res, ok := byCell[cell]; ok {
			res.Index = i
			c.skip[i] = true
			c.resumed = append(c.resumed, res)
			n++
		}
	}
	return n, nil
}

// Resumed returns the results adopted by [Campaign.Resume], with
// Index rewritten to each cell's position in this campaign's grid.
func (c *Campaign) Resumed() []CellResult {
	return append([]CellResult(nil), c.resumed...)
}

// Results runs the campaign's pending cells across the worker pool
// and yields each cell result as it completes (completion order;
// CellResult.Index restores grid order). Breaking out of the loop
// cancels the remaining work and waits for in-flight cells to flush.
// A nil ctx means background; when ctx ends the campaign early, the
// in-flight cells stream out with Cancelled set and [Campaign.Err]
// reports the cause.
//
// Results is single-shot: the campaign runs once, and iterating again
// (the same sequence or a new Results call) yields nothing instead of
// silently re-exploring the grid.
func (c *Campaign) Results(ctx context.Context) iter.Seq[CellResult] {
	return func(yield func(CellResult) bool) {
		if c.ran.Swap(true) {
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		// The runner sees only the pending cells; origIdx maps its
		// dense indices back to grid positions so streamed results
		// stay consistent with Resumed() ones.
		var pending []Cell
		var origIdx []int
		for i, cell := range c.cells {
			if !c.skip[i] {
				pending = append(pending, cell)
				origIdx = append(origIdx, i)
			}
		}
		if len(pending) == 0 {
			return
		}

		// stop is closed only when the consumer abandons the
		// iteration (break or panic out of yield): a cancelled ctx
		// alone must still flush every cell marker to the consumer.
		stop := make(chan struct{})
		var stopOnce sync.Once
		stopped := func() { stopOnce.Do(func() { close(stop) }) }
		defer stopped()

		// emitMu serialises the user's heartbeat callback with yield:
		// heartbeats arrive on the runner's goroutine while results
		// are consumed on the iterating one, and the documented
		// pattern points HeartbeatWriter and JSONLWriter at the same
		// stream.
		var emitMu sync.Mutex
		ch := make(chan CellResult)
		errc := make(chan error, 1)
		go func() {
			defer close(ch)
			runner := campaign.Runner{
				Workers:        c.cfg.workers,
				CellTimeout:    c.cfg.cellTimeout,
				HeartbeatEvery: c.cfg.heartbeatEvery,
				FlightDir:      c.cfg.flightDir,
				OnResult: func(r CellResult) {
					r.Index = origIdx[r.Index]
					select {
					case ch <- r:
					case <-stop:
						// The consumer stopped listening; drop the
						// result so the runner can wind down.
					}
				},
			}
			if c.cfg.onHeartbeat != nil {
				runner.OnHeartbeat = func(h Heartbeat) {
					h.Index = origIdx[h.Index]
					emitMu.Lock()
					defer emitMu.Unlock()
					c.cfg.onHeartbeat(h)
				}
			}
			err := runner.Stream(ctx, pending)
			errc <- err
		}()
		for r := range ch {
			emitMu.Lock()
			ok := yield(r)
			emitMu.Unlock()
			if !ok {
				stopped()
				cancel()
				for range ch { // let the runner flush and exit
				}
				<-errc
				return
			}
		}
		c.err = <-errc
	}
}

// Err reports whether the context ended the last Results iteration
// early (nil after a complete, consumer-driven run; per-cell failures
// live in CellResult.Err instead — see [FirstError]).
func (c *Campaign) Err() error { return c.err }

// FirstError returns the first cell-level failure in grid order, or
// nil.
func FirstError(results []CellResult) error {
	return campaign.FirstError(results)
}

// Quarantine returns the cells that failed (CellResult.Err != ""), in
// the order given — the campaign's survivability ledger: everything
// here was contained (engine panic, cell deadline) without taking down
// the cells around it.
func Quarantine(results []CellResult) []CellResult {
	return campaign.Quarantine(results)
}

// ErrTruncatedTail is wrapped by [ReadResults] when a result stream
// ends mid-line — the signature of a run killed during its final
// write. The complete prefix is still returned; errors.Is
// distinguishes this recoverable tail from mid-stream corruption.
var ErrTruncatedTail = campaign.ErrTruncatedTail

// JSONLWriter returns a callback that streams each cell result as one
// JSON line to w — the campaign checkpoint format [Campaign.Resume]
// and [ReadResults] consume.
func JSONLWriter(w io.Writer) func(CellResult) {
	return campaign.JSONLWriter(w)
}

// ReadResults parses a JSONL cell-result stream (e.g. the output of
// `eval -fig campaign -json`).
func ReadResults(r io.Reader) ([]CellResult, error) {
	return campaign.ReadJSONL(r)
}
