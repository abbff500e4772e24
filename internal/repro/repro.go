// Package repro turns the violations the exploration engines find into
// portable, minimized, deterministically replayable counterexample
// artifacts — the missing half of a bug-finding run. The workflow:
//
//	capture   an explore.Witness (the choice sequence recorded the
//	          moment a terminal violation was seen) is replayed once
//	          through exec.Run and packaged with the program identity,
//	          engine, bounds, expected failure kind and terminal state
//	          digest into an Artifact;
//	replay    an Artifact re-executes against the program and verifies
//	          that the trace, final state and failure kind all
//	          reproduce, with a diagnostic naming whatever diverged;
//	minimize  delta debugging (ddmin) shrinks the explicit schedule
//	          constraints and a preemption-lowering pass merges
//	          context-switch blocks, emitting the shortest schedule
//	          with the fewest preemptions that still reproduces the
//	          same failure kind (mirroring the paper's observation
//	          that most bugs need very few preemptions).
//
// Artifacts are versioned JSON; the schedule payload is an
// internal/trace Record, so anything that replays trace files replays
// artifacts too.
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/trace"
)

// FormatVersion identifies the artifact layout.
const FormatVersion = 1

// Artifact is one portable counterexample: everything needed to
// reproduce, verify and triage a violation without the run that found
// it.
type Artifact struct {
	Version int `json:"version"`
	// Engine names the engine configuration that found the witness.
	Engine string `json:"engine"`
	// SchedulesToBug is the 1-based index of the violating execution
	// in the finding run — the paper's bug-finding metric; 0 when
	// unknown (e.g. a hand-written schedule).
	SchedulesToBug int `json:"schedules_to_bug,omitempty"`
	// Kind is the expected failure class ("deadlock", "assertion
	// failure", "lock misuse", "data race").
	Kind string `json:"kind"`
	// Preemptions counts the preemptive context switches in the
	// stored schedule (switches away from a still-enabled thread).
	Preemptions int `json:"preemptions"`
	// StateSig is the hex-encoded 128-bit digest of the violating
	// terminal state — the engines' distinct-state currency.
	StateSig string `json:"state_sig"`
	// MaxSteps is the per-execution event bound the witness was
	// captured under (and must be replayed under).
	MaxSteps int `json:"max_steps,omitempty"`
	// Minimized marks an artifact produced by Minimize.
	Minimized bool `json:"minimized,omitempty"`
	// Trace is the schedule payload: program identity guard, the full
	// choice sequence and the recorded events and final state.
	Trace trace.Record `json:"trace"`
}

// String summarises the artifact.
func (a Artifact) String() string {
	min := ""
	if a.Minimized {
		min = ", minimized"
	}
	return fmt.Sprintf("%s: %s by %s after %d schedules (%d steps, %d preemptions%s)",
		a.Trace.Program, a.Kind, a.Engine, a.SchedulesToBug, len(a.Trace.Choices), a.Preemptions, min)
}

// sigHex renders a state digest the way artifacts store it.
func sigHex(s model.StateSig) string { return fmt.Sprintf("%016x%016x", s[0], s[1]) }

// FromResult reconstructs the first-bug witness of a finished
// exploration Result (its FirstViolation fields). The second return is
// false when the result saw no violation (no ViolationKind: a
// violation in the initial state has an empty FirstViolation).
// Parallel engines merge FirstViolation deterministically, so the
// witness works for them too — the winning worker's pinned prefix and
// local choices are already concatenated in the recorded sequence.
func FromResult(res explore.Result) (explore.Witness, bool) {
	if res.ViolationKind == "" {
		return explore.Witness{}, false
	}
	return explore.Witness{
		Program:  res.Program,
		Engine:   res.Engine,
		Choices:  res.FirstViolation,
		Kind:     res.ViolationKind,
		Schedule: res.FirstBugSchedule,
	}, true
}

// Capture replays a witness against src and packages it as an
// artifact. The replay must reproduce the witness's failure kind (and
// state digest, when the witness carries one): engines and exec.Run
// are deterministic, so a mismatch means the witness was recorded for
// a different program or bound.
func Capture(src model.Source, w explore.Witness, maxSteps int) (Artifact, error) {
	if maxSteps <= 0 {
		maxSteps = exec.DefaultMaxSteps
	}
	out := exec.Replay(src, w.Choices, exec.Options{MaxSteps: maxSteps})
	kind := out.ViolationKind()
	if kind != w.Kind {
		return Artifact{}, fmt.Errorf("repro: witness for %s does not capture: replay produced %s, witness saw %s",
			src.Name(), orNone(kind), orNone(w.Kind))
	}
	if w.StateSig != (model.StateSig{}) && out.StateSig != w.StateSig {
		return Artifact{}, fmt.Errorf("repro: witness for %s does not capture: replay state digest %s, witness saw %s",
			src.Name(), sigHex(out.StateSig), sigHex(w.StateSig))
	}
	return Artifact{
		Version:        FormatVersion,
		Engine:         w.Engine,
		SchedulesToBug: w.Schedule,
		Kind:           kind,
		Preemptions:    Preemptions(src, out.Choices),
		StateSig:       sigHex(out.StateSig),
		MaxSteps:       maxSteps,
		Trace:          trace.FromOutcome(src, out, kind),
	}, nil
}

// Replay re-executes the artifact's schedule against src and verifies
// the counterexample reproduces: same trace, same terminal state, same
// failure kind and same state digest. The returned outcome is the
// replayed execution (also on mismatch, for triage); the error names
// exactly what diverged.
func (a Artifact) Replay(src model.Source) (exec.Outcome, error) {
	if a.Version != FormatVersion {
		return exec.Outcome{}, fmt.Errorf("repro: unsupported artifact version %d (want %d)", a.Version, FormatVersion)
	}
	out, err := a.Trace.Replay(src, exec.Options{MaxSteps: a.maxSteps()})
	if err != nil {
		return out, fmt.Errorf("repro: %w", err)
	}
	if kind := out.ViolationKind(); kind != a.Kind {
		return out, fmt.Errorf("repro: replay of %s produced %s, artifact expects %s",
			src.Name(), orNone(kind), orNone(a.Kind))
	}
	if got := sigHex(out.StateSig); got != a.StateSig {
		return out, fmt.Errorf("repro: replay of %s reached state digest %s, artifact expects %s",
			src.Name(), got, a.StateSig)
	}
	return out, nil
}

func (a Artifact) maxSteps() int {
	if a.MaxSteps <= 0 {
		return exec.DefaultMaxSteps
	}
	return a.MaxSteps
}

func orNone(kind string) string {
	if kind == "" {
		return "no violation"
	}
	return kind
}

// Write serialises the artifact as indented JSON.
func (a Artifact) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteFile writes the artifact to path atomically: the JSON is
// written and fsynced to a temporary file in the destination
// directory, then renamed into place. A crash mid-write leaves either
// the old artifact or none — never a truncated one that Replay would
// reject (or, worse, half-verify).
func (a Artifact) WriteFile(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := a.Write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Read parses an artifact and validates its version and schedule
// payload.
func Read(r io.Reader) (Artifact, error) {
	var a Artifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return Artifact{}, fmt.Errorf("repro: decode: %w", err)
	}
	if a.Version != FormatVersion {
		return Artifact{}, fmt.Errorf("repro: unsupported artifact version %d (want %d)", a.Version, FormatVersion)
	}
	if a.Trace.Version != trace.FormatVersion {
		return Artifact{}, fmt.Errorf("repro: unsupported trace version %d in artifact", a.Trace.Version)
	}
	return a, nil
}

// ReadFile reads an artifact from path.
func ReadFile(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, err
	}
	defer f.Close()
	return Read(f)
}

// Preemptions counts the preemptive context switches in a schedule: at
// each step after the first, a switch to a different thread while the
// previous thread is still enabled costs one preemption (switches at
// blocking or terminating operations are free — the CHESS accounting).
func Preemptions(src model.Source, choices []event.ThreadID) int {
	return len(preemptionPoints(src, choices))
}
