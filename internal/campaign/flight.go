package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/explore"
)

// FlightArtifact is the structured dump the runner writes when a cell
// with an armed flight recorder fails (quarantine, cell timeout,
// engine panic): the cell, its error, the final counter snapshot, and
// the ring of most recent executions — a debuggable trace where there
// used to be one Err line. The artifact lands in Runner.FlightDir as
// flight__<bench>__<engine>.json (engine spec sanitised like repro
// artifact names).
type FlightArtifact struct {
	Cell     Cell                  `json:"cell"`
	Err      string                `json:"error"`
	Progress explore.Progress      `json:"progress"`
	Entries  []explore.FlightEntry `json:"entries"`
}

// sanitizeSpec makes an engine spec filename-safe, matching the repro
// artifact naming convention.
var sanitizeSpec = strings.NewReplacer(":", "-", "/", "-", "[", "", "]", "")

// FlightPath returns the artifact path a failing cell dumps to under
// dir.
func FlightPath(dir string, c Cell) string {
	return filepath.Join(dir, fmt.Sprintf("flight__%s__%s.json", c.Bench, sanitizeSpec.Replace(string(c.Engine))))
}

// dumpFlight writes the flight artifact for a failed cell, atomically
// (temp file + rename) so a half-written dump never shadows a
// complete one. The write is best-effort: a dump failure is appended
// to the cell's Err rather than masking the original failure.
func dumpFlight(dir string, out *CellResult, ctr *explore.Counters, flight *explore.FlightRecorder) {
	art := FlightArtifact{
		Cell:    out.Cell,
		Err:     out.Err,
		Entries: flight.Snapshot(),
	}
	if ctr != nil {
		art.Progress = ctr.Snapshot()
		art.Progress.Program = out.Cell.Bench
		art.Progress.Engine = string(out.Cell.Engine)
	}
	path := FlightPath(dir, out.Cell)
	if err := writeFlightFile(dir, path, art); err != nil {
		out.Err += "; flight dump failed: " + err.Error()
		return
	}
	out.FlightPath = path
}

func writeFlightFile(dir, path string, art FlightArtifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".flight-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFlight loads a flight artifact written by a campaign with
// Runner.FlightDir set.
func ReadFlight(path string) (FlightArtifact, error) {
	var art FlightArtifact
	data, err := os.ReadFile(path)
	if err != nil {
		return art, err
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return art, fmt.Errorf("campaign: bad flight artifact %s: %w", path, err)
	}
	return art, nil
}
