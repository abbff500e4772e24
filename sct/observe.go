package sct

// This file is the observability surface of the facade: live progress
// snapshots for single runs (WithObserver), per-cell heartbeats and
// flight recorders for campaigns (WithHeartbeat, WithFlightRecorder).
// See docs/OBSERVABILITY.md for the counter catalogue and stream
// formats.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
)

// Progress is one point-in-time snapshot of a running search:
// schedules/events/backtracks performed, dedup hit rates, prune and
// divergence counters, steal traffic and the resolved backend. The
// field set is the documented counter catalogue (docs/OBSERVABILITY.md
// pins it with a doc-sync test).
type Progress = explore.Progress

// Observer configures periodic [Progress] delivery from a [Run]:
// OnProgress fires every EverySchedules schedules or Every wall-clock
// interval, whichever comes first, plus once when the search
// finishes. A disabled observer costs nothing; an enabled one never
// changes results.
type Observer = explore.Observer

// Counters is the lock-free live counter set behind [Progress]
// snapshots; custom [Engine] implementations publish into it through
// [Options].
type Counters = explore.Counters

// Heartbeat is one liveness record for an in-flight campaign cell:
// cell identity, schedules/events so far, the aggregate schedule rate
// and the resolved backend.
type Heartbeat = campaign.Heartbeat

// FlightEntry is one recent execution retained by a cell's flight
// recorder: its schedule prefix (complete choice sequence), outcome,
// depth and timing.
type FlightEntry = explore.FlightEntry

// FlightArtifact is the structured dump a failing campaign cell
// leaves behind when [WithFlightRecorder] is armed: the cell, its
// error, the final counter snapshot and the ring of most recent
// executions.
type FlightArtifact = campaign.FlightArtifact

// ReadFlight loads a flight artifact dumped by a campaign run with
// [WithFlightRecorder].
func ReadFlight(path string) (FlightArtifact, error) {
	return campaign.ReadFlight(path)
}

// WithObserver delivers periodic [Progress] snapshots from a [Run].
// The zero cadence means the defaults (1024 schedules / 1s). Run
// only: campaigns observe through [WithHeartbeat] instead.
func WithObserver(o Observer) Option {
	return func(c *config) error {
		c.mark("WithObserver")
		if o.OnProgress == nil {
			return fmt.Errorf("WithObserver with nil OnProgress")
		}
		if o.EverySchedules < 0 {
			return fmt.Errorf("negative observer schedule cadence %d", o.EverySchedules)
		}
		if o.Every < 0 {
			return fmt.Errorf("negative observer interval %v", o.Every)
		}
		c.observer = &o
		return nil
	}
}

// WithHeartbeat delivers periodic per-cell [Heartbeat] records from a
// campaign ([NewCampaign] only). every <= 0 uses the default cadence
// (1s). fn is serialised with the result stream, so
// [HeartbeatWriter] and [JSONLWriter] pointed at the same stream
// interleave line-atomically — and [Campaign.Resume] skips the
// heartbeat lines.
func WithHeartbeat(every time.Duration, fn func(Heartbeat)) Option {
	return func(c *config) error {
		c.mark("WithHeartbeat")
		if fn == nil {
			return fmt.Errorf("WithHeartbeat with nil callback")
		}
		if every < 0 {
			return fmt.Errorf("negative heartbeat interval %v", every)
		}
		c.heartbeatEvery = every
		c.onHeartbeat = fn
		return nil
	}
}

// WithFlightRecorder arms a per-cell flight recorder on a campaign
// ([NewCampaign] only): every cell records its recent executions into
// a bounded ring, and a cell that fails — quarantine, cell timeout,
// engine panic — dumps a [FlightArtifact] into dir
// (flight__<bench>__<engine>.json). Healthy cells dump nothing.
func WithFlightRecorder(dir string) Option {
	return func(c *config) error {
		c.mark("WithFlightRecorder")
		if dir == "" {
			return fmt.Errorf("WithFlightRecorder with empty directory")
		}
		c.flightDir = dir
		return nil
	}
}

// HeartbeatWriter returns a [WithHeartbeat] callback that streams
// each heartbeat as one JSON line to w — point it at the same stream
// as [JSONLWriter] for a mixed, still checkpoint-resumable JSONL
// stream.
func HeartbeatWriter(w io.Writer) func(Heartbeat) {
	return campaign.HeartbeatJSONL(w)
}
