package bench

import (
	"fmt"
	"testing"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// TestCorpusSize pins the corpus size: the paper's 79 plus the
// channel family.
func TestCorpusSize(t *testing.T) {
	all := All()
	if len(all) != Count {
		t.Fatalf("corpus has %d benchmarks, want %d", len(all), Count)
	}
	for i, b := range all {
		if b.ID != i+1 {
			t.Errorf("benchmark %q has ID %d, want %d", b.Name, b.ID, i+1)
		}
		if b.Name == "" || b.Family == "" || b.Notes == "" || b.Program == nil {
			t.Errorf("benchmark %d has incomplete metadata: %+v", i+1, b)
		}
	}
}

// shape is the structure of a built program that lookups must
// reproduce: its universe sizes and, for progdsl programs, every
// thread's code.
func shape(src model.Source) string {
	s := fmt.Sprintf("%s threads=%d vars=%d mutexes=%d init=%v",
		src.Name(), src.NumThreads(), src.NumVars(), src.NumMutexes(), src.InitiallyRunning())
	if cs, ok := src.(model.ChannelSource); ok {
		s += fmt.Sprintf(" chans=%d", cs.NumChannels())
	}
	if p, ok := src.(*progdsl.Program); ok {
		for t := 0; t < p.NumThreads(); t++ {
			s += "\n" + p.Disassemble(event.ThreadID(t))
		}
	}
	return s
}

// TestLookup: ByName and ByID, which build only the program they
// return, agree with the whole-set builders on every corpus and hostile
// entry — same metadata, a structurally identical program, and a fresh
// Program on every call — and reject unknown names and IDs.
func TestLookup(t *testing.T) {
	all := All()
	if names := Names(); len(names) != len(all) {
		t.Fatalf("Names() has %d entries, All() %d", len(names), len(all))
	}
	check := func(how string, want, got Benchmark) {
		t.Helper()
		if got.ID != want.ID || got.Name != want.Name || got.Family != want.Family || got.Notes != want.Notes {
			t.Errorf("%s: metadata %d/%q/%q differs from %d/%q/%q",
				how, got.ID, got.Name, got.Family, want.ID, want.Name, want.Family)
		}
		if shape(got.Program) != shape(want.Program) {
			t.Errorf("%s: program differs in structure:\n got %s\nwant %s", how, shape(got.Program), shape(want.Program))
		}
	}
	for i, name := range Names() {
		want := all[i]
		a, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) not found", name)
		}
		check("ByName("+name+")", want, a)
		b, ok := ByID(want.ID)
		if !ok {
			t.Fatalf("ByID(%d) not found", want.ID)
		}
		check(fmt.Sprintf("ByID(%d)", want.ID), want, b)
		if again, _ := ByName(name); again.Program == a.Program {
			t.Errorf("ByName(%q) returned the same Program twice", name)
		}
		if b.Program == a.Program {
			t.Errorf("ByID(%d) returned ByName's Program", want.ID)
		}
	}
	for _, want := range Hostile() {
		got, ok := ByName(want.Name)
		if !ok {
			t.Fatalf("ByName(%q) not found", want.Name)
		}
		check("ByName("+want.Name+")", want, got)
		if _, ok := ByID(want.ID); ok {
			t.Errorf("ByID(%d) resolved a hostile program", want.ID)
		}
	}
	// "no-such-bench-21956289" has coarse-tail-4x4's 32-bit name hash:
	// a hash match alone must not resolve a name.
	for _, name := range []string{"", "no-such-benchmark", "synth-00", "hostile", "no-such-bench-21956289"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) accepted an unknown name", name)
		}
	}
	for _, id := range []int{-1, 0, Count + 1, HostileIDBase + 1} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%d) accepted an unknown ID", id)
		}
	}
}

// TestIDOf: IDOf, which builds no program, agrees with ByName on every
// corpus and hostile name and rejects the names ByName rejects.
func TestIDOf(t *testing.T) {
	names := Names()
	for _, b := range Hostile() {
		names = append(names, b.Name)
	}
	for _, name := range names {
		want, _ := ByName(name)
		if id, ok := IDOf(name); !ok || id != want.ID {
			t.Errorf("IDOf(%q) = %d, %v; ByName's ID is %d", name, id, ok, want.ID)
		}
	}
	for _, name := range []string{"", "no-such-benchmark", "synth-00", "hostile", "no-such-bench-21956289"} {
		if id, ok := IDOf(name); ok {
			t.Errorf("IDOf(%q) = %d, accepted an unknown name", name, id)
		}
	}
}

// TestEveryBenchmarkRuns executes one deterministic schedule of every
// benchmark and checks it terminates within the depth bound.
func TestEveryBenchmarkRuns(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			out := exec.Run(b.Program, exec.FirstEnabled{}, exec.Options{MaxSteps: 2000})
			if out.Truncated {
				t.Fatalf("default schedule of %s truncated at %d events", b.Name, len(out.Trace))
			}
			if len(out.Trace) == 0 {
				t.Fatalf("%s executed no events", b.Name)
			}
		})
	}
}

// TestEveryBenchmarkReplayDeterministic checks that replaying a
// recorded schedule reproduces the identical outcome — the property
// every SCT result in this repository rests on.
func TestEveryBenchmarkReplayDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			first := exec.Run(b.Program, exec.NewRandom(42), exec.Options{MaxSteps: 2000})
			again := exec.Replay(b.Program, first.Choices, exec.Options{MaxSteps: 2000})
			if first.StateKey != again.StateKey {
				t.Fatalf("replay diverged:\n first=%s\nsecond=%s", first.StateKey, again.StateKey)
			}
			if first.HBFP != again.HBFP || first.LazyFP != again.LazyFP {
				t.Fatalf("replay produced different happens-before fingerprints")
			}
		})
	}
}

// TestEveryBenchmarkInvariant runs a capped DPOR exploration over the
// whole corpus and asserts the paper's inequality chain
// #states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules on every benchmark.
func TestEveryBenchmarkInvariant(t *testing.T) {
	eng := explore.NewDPOR(false)
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res := eng.Explore(b.Program, explore.Options{ScheduleLimit: 300, MaxSteps: 2000})
			if err := res.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if res.Terminals == 0 && res.Truncated == 0 {
				t.Fatalf("%s: exploration made no progress: %+v", b.Name, res)
			}
		})
	}
}

// TestDeadlockBenchmarks checks that the deadlocking philosopher
// variants actually deadlock and the ordered ones do not.
func TestDeadlockBenchmarks(t *testing.T) {
	eng := explore.NewDFS()
	cases := map[string]bool{
		"philosophers-2":         true,
		"philosophers-3":         true,
		"philosophers-ordered-2": false,
		"philosophers-ordered-3": false,
	}
	for name, wantDeadlock := range cases {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		res := eng.Explore(b.Program, explore.Options{ScheduleLimit: 50000, MaxSteps: 2000})
		if (res.Deadlocks > 0) != wantDeadlock {
			t.Errorf("%s: deadlocks=%d, wantDeadlock=%v (%v)", name, res.Deadlocks, wantDeadlock, res.String())
		}
	}
}

// byNameMaxAllocs bounds one lookup. Building the whole corpus costs
// ≈3,600 allocations, and every family's entry table ≈250 on top of a
// lookup; one lookup builds its own family's entry table and one
// program, which measures 9–104 allocations (up to ≈160 under the race
// detector, in the largest family, the first).
const byNameMaxAllocs = 200

// TestByNameBuildsOnlyTheMatch keeps a whole-corpus or all-families
// rebuild from coming back into ByName/ByID: campaign cells and figure
// rows look programs up one at a time, and each lookup must pay for
// one family's entries and one program, not for all of them. The first
// corpus entry sits in the largest family; the last corpus entry and a
// hostile program sit in the last families.
func TestByNameBuildsOnlyTheMatch(t *testing.T) {
	whole := testing.AllocsPerRun(5, func() { All() })
	names := Names()
	lookups := map[string]func(){
		"ByName(" + names[0] + ")":            func() { ByName(names[0]) },
		"ByName(" + names[len(names)-1] + ")": func() { ByName(names[len(names)-1]) },
		"ByName(hostile-diverge)":             func() { ByName("hostile-diverge") },
		fmt.Sprintf("ByID(%d)", Count):        func() { ByID(Count) },
	}
	for how, f := range lookups {
		got := testing.AllocsPerRun(20, f)
		if got > byNameMaxAllocs {
			t.Errorf("%s: %.0f allocs, want ≤ %d (All() costs %.0f — rebuilding the corpus?)",
				how, got, byNameMaxAllocs, whole)
		}
	}
}
