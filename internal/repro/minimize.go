// Schedule minimization: ddmin over the explicit choice sequence plus
// a preemption-lowering pass, each candidate validated by
// deterministic replay.
//
// Replay semantics make candidates total: exec.Prefix skips a
// requested thread that is not enabled and falls back to the
// first-enabled policy past the end of the constraints, so *any*
// subsequence of a schedule replays to some terminal execution. A
// candidate "reproduces" when that execution exhibits the same failure
// kind; the minimized artifact then stores the candidate's full
// replayed schedule, so it replays exactly (same trace, same state
// digest) like any captured artifact.
package repro

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/trace"
)

// DefaultReplayBudget bounds the validation replays one Minimize call
// may spend; generous for the schedule lengths SCT bugs need.
const DefaultReplayBudget = 4096

// MinimizeStats reports what minimization did.
type MinimizeStats struct {
	// Replays is the number of validation executions spent.
	Replays int `json:"replays"`
	// Constraints is the length of the ddmin-minimal explicit
	// constraint list (the stored schedule is its full replay).
	Constraints int `json:"constraints"`
	// OriginalChoices/OriginalPreemptions describe the input artifact;
	// MinChoices/MinPreemptions the minimized one.
	OriginalChoices     int `json:"original_choices"`
	OriginalPreemptions int `json:"original_preemptions"`
	MinChoices          int `json:"min_choices"`
	MinPreemptions      int `json:"min_preemptions"`
}

// Minimize shrinks an artifact's schedule: first ddmin over the choice
// sequence, then preemption lowering on the surviving schedule. The
// result reproduces the same failure kind with no more choices and no
// more preemptions than the input (falling back to lowering the
// original schedule alone if the ddmin route canonicalised into a
// worse schedule). replayBudget caps the validation replays; <= 0 uses
// DefaultReplayBudget.
func Minimize(src model.Source, a Artifact, replayBudget int) (Artifact, MinimizeStats, error) {
	if replayBudget <= 0 {
		replayBudget = DefaultReplayBudget
	}
	stats := MinimizeStats{
		OriginalChoices:     len(a.Trace.Choices),
		OriginalPreemptions: a.Preemptions,
	}
	if err := a.Trace.Matches(src); err != nil {
		return a, stats, fmt.Errorf("repro: %w", err)
	}

	// try is the single validation primitive: one replay per
	// candidate, returning the outcome alongside the verdict so no
	// caller re-executes an already-validated schedule. Every replay
	// runs on one runner; the outcomes it keeps share none of the
	// runner's storage.
	run := exec.NewRunner(src, exec.Options{MaxSteps: a.maxSteps()})
	defer run.Close()
	try := func(cand []event.ThreadID) (exec.Outcome, bool) {
		if stats.Replays >= replayBudget {
			return exec.Outcome{}, false
		}
		stats.Replays++
		out := run.Replay(cand)
		return out, out.ViolationKind() == a.Kind
	}
	test := func(cand []event.ThreadID) bool {
		_, ok := try(cand)
		return ok
	}

	orig, ok := try(a.Trace.Choices)
	if !ok {
		return a, stats, fmt.Errorf("repro: artifact for %s does not reproduce %s before minimization", src.Name(), a.Kind)
	}

	cand := ddmin(test, a.Trace.Choices)
	stats.Constraints = len(cand)
	full := orig
	if len(cand) < len(a.Trace.Choices) {
		if canon, ok := try(cand); ok {
			full = canon
		}
	}
	full = lowerPreemptions(src, full, try)

	// Guard the contract: never emit a schedule longer or more
	// preempted than the original. The ddmin route canonicalises tail
	// steps through the first-enabled fallback, which on rare shapes
	// costs preemptions; lowering the original schedule alone only
	// ever improves it (and replay is deterministic, so the original
	// outcome kept from the validation replay stays valid).
	p := Preemptions(src, full.Choices)
	if len(full.Choices) > stats.OriginalChoices || p > stats.OriginalPreemptions {
		full = lowerPreemptions(src, orig, try)
		p = Preemptions(src, full.Choices)
		// The ddmin result was discarded: the emitted schedule is the
		// (lowered) original, whose explicit constraint list is the
		// full choice sequence — don't report the abandoned ddmin
		// length as if it described the artifact.
		stats.Constraints = len(full.Choices)
	}
	out := full
	min := a
	min.Minimized = true
	min.Preemptions = p
	min.StateSig = sigHex(out.StateSig)
	min.Trace = trace.FromOutcome(src, out, a.Kind)
	stats.MinChoices = len(min.Trace.Choices)
	stats.MinPreemptions = min.Preemptions
	return min, stats, nil
}

// ddmin is the classic delta-debugging minimization over removal of
// choice chunks: split the sequence into n chunks, try every
// complement, recurse on success with n-1 chunks, otherwise double the
// granularity until single-choice removal fails everywhere.
func ddmin(test func([]event.ThreadID) bool, choices []event.ThreadID) []event.ThreadID {
	if test(nil) {
		// The default (first-enabled) schedule already fails: no
		// explicit constraints needed.
		return nil
	}
	cur := append([]event.ThreadID(nil), choices...)
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			comp := append(append([]event.ThreadID{}, cur[:start]...), cur[end:]...)
			if test(comp) {
				cur = comp
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}

// lowerPreemptions repeatedly removes preemptive context switches from
// a fully-replayed schedule: at a switch away from thread a while a
// stays enabled, a's next run of choices is moved forward to extend
// the current run instead. A transformed schedule is kept only when
// its replay (one per candidate, through try) still reproduces the
// failure with strictly fewer preemptions and no extra steps, so the
// pass monotonically improves and terminates. Returns the replayed
// outcome of the best schedule found.
func lowerPreemptions(src model.Source, full exec.Outcome,
	try func([]event.ThreadID) (exec.Outcome, bool)) exec.Outcome {
	best := full
	bestP := Preemptions(src, best.Choices)
	for improved := true; improved && bestP > 0; {
		improved = false
		for _, i := range preemptionPoints(src, best.Choices) {
			a := best.Choices[i-1]
			j := -1
			for k := i; k < len(best.Choices); k++ {
				if best.Choices[k] == a {
					j = k
					break
				}
			}
			if j < 0 {
				continue
			}
			end := j
			for end < len(best.Choices) && best.Choices[end] == a {
				end++
			}
			cand := make([]event.ThreadID, 0, len(best.Choices))
			cand = append(cand, best.Choices[:i]...)
			cand = append(cand, best.Choices[j:end]...)
			cand = append(cand, best.Choices[i:j]...)
			cand = append(cand, best.Choices[end:]...)
			out, ok := try(cand)
			if !ok {
				continue
			}
			p := Preemptions(src, out.Choices)
			if p < bestP && len(out.Choices) <= len(best.Choices) {
				best = out
				bestP = p
				improved = true
				break
			}
		}
	}
	return best
}

// preemptionPoints returns the schedule indices whose switch is
// preemptive (ascending).
func preemptionPoints(src model.Source, choices []event.ThreadID) []int {
	m := model.NewMachine(src)
	defer m.Abort()
	var pts []int
	for i, t := range choices {
		if i > 0 && t != choices[i-1] && m.Enabled(choices[i-1]) {
			pts = append(pts, i)
		}
		m.Step(t)
	}
	return pts
}
