package campaign

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/explore"
)

// HeartbeatType is the value of Heartbeat.Type — the discriminator
// that lets heartbeat lines share a JSONL stream with cell results
// (cell-result lines carry no "type" field; ReadJSONL and resume skip
// every line that does).
const HeartbeatType = "heartbeat"

// DefaultHeartbeatEvery is the heartbeat cadence when
// Runner.HeartbeatEvery is unset.
const DefaultHeartbeatEvery = time.Second

// Heartbeat is one liveness record for an in-flight campaign cell:
// which cell is running, how much work it has done and how fast.
// Heartbeats flow through Runner.OnHeartbeat (serialised with
// OnResult, so JSONL streams stay line-atomic) and are pure telemetry
// — dropping them changes nothing.
type Heartbeat struct {
	// Type is always HeartbeatType; it distinguishes heartbeat lines
	// from cell-result lines in a mixed JSONL stream.
	Type string `json:"type"`
	// Index is the cell's position in the campaign grid; Bench and
	// Engine identify it.
	Index  int        `json:"index"`
	Bench  string     `json:"bench"`
	Engine EngineSpec `json:"engine"`
	// Schedules, Events and MaxDepth are the cell's live exploration
	// counters so far.
	Schedules int64 `json:"schedules"`
	Events    int64 `json:"events"`
	MaxDepth  int64 `json:"max_depth,omitempty"`
	// SchedulesPerSec is the cell's aggregate schedule rate since it
	// started.
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// Backend is the resolved backtracking backend, once known.
	Backend string `json:"backend,omitempty"`
	// ElapsedMS is the cell's wall clock so far, in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// makeHeartbeat samples one heartbeat from a cell's live counters.
func makeHeartbeat(index int, c Cell, ctr *explore.Counters, start time.Time) Heartbeat {
	elapsed := time.Since(start)
	h := Heartbeat{
		Type:      HeartbeatType,
		Index:     index,
		Bench:     c.Bench,
		Engine:    c.Engine,
		ElapsedMS: elapsed.Milliseconds(),
	}
	if ctr != nil {
		h.Schedules = ctr.Schedules.Load()
		h.Events = ctr.Events.Load()
		h.MaxDepth = ctr.MaxDepth.Load()
		h.Backend = ctr.Backend()
		if s := elapsed.Seconds(); s > 0 {
			h.SchedulesPerSec = float64(h.Schedules) / s
		}
	}
	return h
}

// HeartbeatJSONL returns an OnHeartbeat callback that streams each
// heartbeat as one JSON line to w, with the same flush/sync behaviour
// as JSONLWriter — point both at the same writer to interleave
// heartbeats with cell results in one checkpoint-resumable stream.
func HeartbeatJSONL(w io.Writer) func(Heartbeat) {
	enc := json.NewEncoder(w)
	return func(h Heartbeat) {
		_ = enc.Encode(h)
		if f, ok := w.(interface{ Flush() error }); ok {
			_ = f.Flush()
		}
		if s, ok := w.(interface{ Sync() error }); ok {
			_ = s.Sync()
		}
	}
}
