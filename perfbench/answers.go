package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/sct"
)

// answersJSON is the known-answer file: per corpus program, the
// violation classes its schedule space contains and, where an
// exhaustive search finished, the exact distinct terminal state count.
// Regenerate it with -write-answers.
//
//go:embed answers.json
var answersJSON []byte

// answer is one program's known answer.
type answer struct {
	Name string `json:"name"`
	// Kinds lists the violation classes ("data race", "deadlock", ...)
	// some terminal execution exhibits; empty for a clean program.
	Kinds []string `json:"kinds"`
	// States is the exact distinct terminal state count, or 0 when no
	// exhaustive search finished within the generation budget.
	States int `json:"states,omitempty"`
	// Exhaustive names the engine whose finished search produced Kinds
	// and States; empty when Kinds is the union of what budget-limited
	// searches saw (a lower bound).
	Exhaustive string `json:"exhaustive,omitempty"`
}

type answerFile struct {
	Generation string   `json:"generation"`
	Programs   []answer `json:"programs"`
}

// answers indexes known answers by program name.
type answers map[string]answer

func parseAnswers(data []byte) (answers, error) {
	var f answerFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("known answers: %w", err)
	}
	out := answers{}
	for _, a := range f.Programs {
		if _, dup := out[a.Name]; dup {
			return nil, fmt.Errorf("known answers: duplicate program %q", a.Name)
		}
		out[a.Name] = a
	}
	return out, nil
}

// exhaustive reports whether spec names an engine that, when it
// finishes without hitting the schedule limit, has visited every
// distinct terminal state. Bounded engines (pb, db) and samplers do
// not.
func exhaustive(spec string) bool {
	name, _, _ := strings.Cut(spec, ":")
	switch name {
	case "dfs", "dpor", "dpor+sleep", "lazy-dpor", "hbr-caching", "lazy-hbr-caching", "pdpor":
		return true
	}
	return false
}

// resultKinds lists the violation classes a result's counters saw.
func resultKinds(r sct.Result) []string {
	var ks []string
	for _, c := range []struct {
		n    int
		kind string
	}{
		{r.Panics, "panic"},
		{r.AssertFailures, "assertion failure"},
		{r.Deadlocks, "deadlock"},
		{r.LockErrors, "lock misuse"},
		{r.Races, "data race"},
	} {
		if c.n > 0 {
			ks = append(ks, c.kind)
		}
	}
	return ks
}

// check validates one cell's result against the program's known
// answer. firstBug marks a stop-at-first-bug run, whose state count is
// partial once a bug was found.
func (a answer) check(spec string, firstBug bool, r sct.Result) error {
	if err := r.CheckInvariant(); err != nil {
		return err
	}
	if r.Interrupted {
		return fmt.Errorf("interrupted")
	}
	kind := r.ViolationKind
	if kind != "" && !slices.Contains(a.Kinds, kind) {
		if len(a.Kinds) == 0 {
			return fmt.Errorf("reported %q on a clean program", kind)
		}
		return fmt.Errorf("reported %q, known kinds %q", kind, a.Kinds)
	}
	for _, k := range resultKinds(r) {
		if !slices.Contains(a.Kinds, k) {
			return fmt.Errorf("counted a %q execution, known kinds %q", k, a.Kinds)
		}
	}
	if !exhaustive(spec) || r.HitLimit {
		return nil
	}
	if len(a.Kinds) > 0 && kind == "" {
		return fmt.Errorf("finished without finding a known %q", a.Kinds)
	}
	if a.States > 0 && !(firstBug && kind != "") && r.DistinctStates != a.States {
		return fmt.Errorf("finished with %d distinct states, known %d", r.DistinctStates, a.States)
	}
	return nil
}
