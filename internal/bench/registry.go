// Package bench provides the benchmark corpus used to reproduce the
// paper's evaluation (Figures 2 and 3). The paper evaluated 79
// open-source multithreaded Java benchmarks; those are not available
// offline, so this corpus substitutes deterministic progdsl programs
// spanning the same structural spectrum (see DESIGN.md §2): classic
// SCT/DPOR benchmarks, coarse-grained-locking families where the lazy
// HBR collapses equivalence classes, interference-heavy programs that
// sit on the diagonal, and a seeded synthetic family. The first 79
// entries reproduce the paper's corpus size and keep their IDs
// pinned; the channel family (IDs 80+) extends the evaluation to the
// message-passing dependence rules the Java corpus could not exhibit.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/progdsl"
)

// Convenient register names for the builders in this package.
const (
	r0 = progdsl.Reg(0)
	r1 = progdsl.Reg(1)
	r2 = progdsl.Reg(2)
	r3 = progdsl.Reg(3)
)

// Benchmark is one corpus entry.
type Benchmark struct {
	// ID is the benchmark's stable 1-based identifier, used as the
	// point label in the reproduced figures.
	ID int
	// Name is unique and stable, e.g. "coarse-disjoint-3x2".
	Name string
	// Family groups parameter variants.
	Family string
	// Notes describes what the benchmark exercises.
	Notes string
	// Program is the program under test.
	Program model.Source
}

type entry struct {
	name   string
	family string
	notes  string
	build  func() model.Source
}

// families in registration order; each contributes a fixed number of
// entries so IDs are stable.
func allEntries() []entry {
	var es []entry
	es = append(es, coarseEntries()...)
	es = append(es, classicEntries()...)
	es = append(es, accountEntries()...)
	es = append(es, lockEntries()...)
	es = append(es, queueEntries()...)
	es = append(es, syntheticEntries()...)
	// New families append strictly after the paper's 79 so existing IDs
	// never shift.
	es = append(es, chanEntries()...)
	return es
}

// All builds the full corpus. Programs are immutable and stateless, so
// the result can be shared; All builds every program afresh on each
// call to keep callers independent. All, Hostile and Names cover the
// whole set; ByName and ByID build only the program they return.
func All() []Benchmark {
	es := allEntries()
	out := make([]Benchmark, len(es))
	for i, e := range es {
		out[i] = e.benchmark(i + 1)
	}
	return out
}

// benchmark builds e's program under the given ID.
func (e entry) benchmark(id int) Benchmark {
	return Benchmark{ID: id, Name: e.name, Family: e.family, Notes: e.notes, Program: e.build()}
}

// Count is the corpus size: the paper's 79 plus the channel family.
const Count = 88

// ByName returns the benchmark with the given name, building only its
// program. It resolves both the 88-entry corpus and the hostile
// fault-injection programs (see hostile.go), which are addressable by
// name only.
func ByName(name string) (Benchmark, bool) {
	for i, e := range allEntries() {
		if e.name == name {
			return e.benchmark(i + 1), true
		}
	}
	for i, e := range hostileEntries() {
		if e.name == name {
			return e.benchmark(HostileIDBase + i + 1), true
		}
	}
	return Benchmark{}, false
}

// ByID returns the benchmark with the given 1-based ID, building only
// its program.
func ByID(id int) (Benchmark, bool) {
	es := allEntries()
	if id < 1 || id > len(es) {
		return Benchmark{}, false
	}
	return es[id-1].benchmark(id), true
}

// Families lists the distinct family names, sorted.
func Families() []string {
	seen := map[string]bool{}
	for _, e := range allEntries() {
		seen[e.family] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Names lists all benchmark names in ID order.
func Names() []string {
	es := allEntries()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

func mustUnique(es []entry) {
	seen := map[string]bool{}
	for _, e := range es {
		if seen[e.name] {
			panic(fmt.Sprintf("bench: duplicate benchmark name %q", e.name))
		}
		seen[e.name] = true
	}
}

func init() {
	es := allEntries()
	if len(es) != Count {
		panic(fmt.Sprintf("bench: corpus has %d entries, want %d", len(es), Count))
	}
	// Names must be unique across the corpus AND the hostile set, since
	// ByName resolves both.
	mustUnique(append(append([]entry(nil), es...), hostileEntries()...))
}
