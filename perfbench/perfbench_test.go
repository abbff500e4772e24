package main

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/event"
)

// runBench runs the command with a zero measuring budget (one pass)
// and returns its exit code and standard output.
func runBench(t *testing.T, answerData []byte, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"--seconds", "0"}, args...), &out, &errOut, answerData)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return code, out.String()
}

// lastLine decodes the report the command prints last.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out)
	}
	return rep
}

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out := runBench(t, answersJSON, "--workload", w.name, "--trace", trace)
			rep := lastLine(t, out)
			if code != 0 || !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s trace=%s: exit %d, report %+v\n%s", w.name, trace, code, rep, out)
			}
			if len(rep.Metrics) == 0 {
				t.Errorf("%s trace=%s: no metrics", w.name, trace)
			}
		}
	}
}

// TestTracedRunDoesNotPerturbResults pins that the traced wrapper —
// counters, flight recorder, wrapped Source and coroutines — changes
// no Result field on any cell of any workload.
func TestTracedRunDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ans, err := parseAnswers(answersJSON)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		s, err := setup(w, 7, ans)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		plain, err := s.runPass(ctx, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr := newTracer()
		active.Store(tr)
		traced, err := s.runPass(ctx, true)
		active.Store(nil)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if diffs := samePass(plain, traced); len(diffs) > 0 {
			t.Errorf("%s: %d cells differ, first: %s", w.name, len(diffs), diffs[0])
		}
		if len(tr.take()) != len(traced.cells) {
			t.Errorf("%s: wrapper saw a different number of searches than cells", w.name)
		}
	}
}

// corrupt rewrites one program's known answer.
func corrupt(t *testing.T, name string, edit func(*answer)) []byte {
	t.Helper()
	var f answerFile
	if err := json.Unmarshal(answersJSON, &f); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(f.Programs, func(a answer) bool { return a.Name == name })
	if i < 0 {
		t.Fatalf("no known answer for %s", name)
	}
	edit(&f.Programs[i])
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCorruptedAnswerFailsTheCommand(t *testing.T) {
	for _, tc := range []struct {
		name, program string
		edit          func(*answer)
		want          string
	}{
		{"state count", "counter-racy-2x2", func(a *answer) { a.States++ }, "distinct states"},
		{"missing kind", "philosophers-3", func(a *answer) { a.Kinds = nil }, "clean program"},
		{"planted bug", "coarse-shared-2", func(a *answer) { a.Kinds = []string{"deadlock"} }, "without finding"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runBench(t, corrupt(t, tc.program, tc.edit), "--workload", "fig2-dpor")
			rep := lastLine(t, out)
			if code == 0 || rep.Correct || rep.Failed == 0 {
				t.Fatalf("corrupted answer for %s passed: exit %d, %+v", tc.program, code, rep)
			}
			if !strings.Contains(out, "FAIL "+tc.program+"/dpor") || !strings.Contains(out, tc.want) {
				t.Errorf("failure does not name %s (%q):\n%s", tc.program, tc.want, out)
			}
		})
	}
}

// TestAnswersMatchCorpus checks that every corpus program has a known
// answer and that the answers agree with what the corpus notes promise.
func TestAnswersMatchCorpus(t *testing.T) {
	ans, err := parseAnswers(answersJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != bench.Count {
		t.Errorf("%d known answers, corpus has %d programs", len(ans), bench.Count)
	}
	for _, b := range bench.All() {
		a, ok := ans[b.Name]
		if !ok {
			t.Errorf("%s: no known answer", b.Name)
			continue
		}
		notes := strings.ToLower(b.Notes)
		switch {
		case strings.Contains(notes, "deadlock-free") || strings.Contains(notes, "violation-free"):
			if slices.Contains(a.Kinds, "deadlock") {
				t.Errorf("%s: notes say %q, known kinds %q", b.Name, b.Notes, a.Kinds)
			}
		case strings.Contains(notes, "deadlock"):
			if !slices.Contains(a.Kinds, "deadlock") {
				t.Errorf("%s: notes say %q, known kinds %q", b.Name, b.Notes, a.Kinds)
			}
		}
		if strings.Contains(notes, "violation-free") && len(a.Kinds) > 0 {
			t.Errorf("%s: notes say %q, known kinds %q", b.Name, b.Notes, a.Kinds)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code, _ := runBench(t, answersJSON, "--workload", "nope"); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1144, 99}, {88, 75}, {176, 90}, {8, 50}, {20000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// stepCoroutine announces n writes, then terminates.
type stepCoroutine struct{ n int }

func (c *stepCoroutine) Peek() (event.Op, bool) {
	return event.Op{Kind: event.KindWrite}, c.n > 0
}

func (c *stepCoroutine) Resume(int64) { c.n-- }

// TestFrontendSamplingTimesEveryKind pins that alternating Peek and
// Resume calls — the machine's pattern — get both kinds timed.
func TestFrontendSamplingTimesEveryKind(t *testing.T) {
	st := &frontendStats{}
	c := wrapCoroutine(&stepCoroutine{n: 10 * sampleEvery}, st)
	for {
		if _, ok := c.Peek(); !ok {
			break
		}
		c.Resume(0)
	}
	if st.resumes.Load() != 10*sampleEvery || st.sampledResumes.Load() != 10 {
		t.Errorf("resumes %d, sampled %d; want %d and 10", st.resumes.Load(), st.sampledResumes.Load(), 10*sampleEvery)
	}
	if st.busy() <= 0 {
		t.Error("no frontend time recorded")
	}
}
