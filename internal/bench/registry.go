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
	"slices"
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

// families lists the entry families in registration order: the
// corpus families, each contributing a fixed number of entries so IDs
// are stable, then the hostile programs (see hostile.go). A corpus
// entry's ID is its 1-based position across the corpus families; new
// families append strictly after the paper's 79 so existing IDs never
// shift.
var families = [...]func() []entry{
	coarseEntries,
	classicEntries,
	accountEntries,
	lockEntries,
	queueEntries,
	syntheticEntries,
	chanEntries,
	hostileEntries,
}

// corpusFamilies is the number of leading families that form the
// corpus.
const corpusFamilies = len(families) - 1

// The lookup table init builds: nameHashes holds a hash of every name
// in family order (the corpus in ID order, then the hostile programs),
// and famEnd[f] counts the names of families 0..f. A lookup finds a
// name's position here and builds only that family's entries; a hash
// match is confirmed against the entry's name. Hashes rather than
// names keep the table's live heap to four bytes per entry.
var (
	nameHashes []uint32
	famEnd     [len(families)]int
)

// nameHash is the 32-bit FNV-1a hash of a benchmark name.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

func allEntries() []entry {
	var es []entry
	for _, f := range families[:corpusFamilies] {
		es = append(es, f()...)
	}
	return es
}

// All builds the full corpus. Programs are immutable and stateless, so
// the result can be shared; All builds every program afresh on each
// call to keep callers independent. All and Hostile build their whole
// set; ByName and ByID build only the program they return.
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
// family's entries and only its own program. It resolves both the
// 88-entry corpus and the hostile fault-injection programs (see
// hostile.go), which are addressable by name only.
func ByName(name string) (Benchmark, bool) {
	e, id, ok := lookup(name)
	if !ok {
		return Benchmark{}, false
	}
	return e.benchmark(id), true
}

// IDOf returns the ID of the benchmark ByName would return, building
// its family's entries but no program.
func IDOf(name string) (int, bool) {
	_, id, ok := lookup(name)
	return id, ok
}

// lookup finds name's entry and ID in the lookup table.
func lookup(name string) (entry, int, bool) {
	h := nameHash(name)
	for i, x := range nameHashes {
		if x != h {
			continue
		}
		if e, id := entryAt(i); e.name == name {
			return e, id, true
		}
	}
	return entry{}, 0, false
}

// ByID returns the benchmark with the given 1-based ID, building only
// its family's entries and only its own program.
func ByID(id int) (Benchmark, bool) {
	if id < 1 || id > Count {
		return Benchmark{}, false
	}
	e, _ := entryAt(id - 1)
	return e.benchmark(id), true
}

// entryAt builds the family of position i of the lookup table and
// returns that position's entry and ID.
func entryAt(i int) (entry, int) {
	f := 0
	for i >= famEnd[f] {
		f++
	}
	start := 0
	if f > 0 {
		start = famEnd[f-1]
	}
	e := families[f]()[i-start]
	if f == corpusFamilies {
		return e, HostileIDBase + i - Count + 1
	}
	return e, i + 1
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

func init() {
	var hashes []uint32
	seen := map[string]bool{}
	for f, build := range families {
		for _, e := range build() {
			// Names must be unique across the corpus AND the hostile
			// set, since ByName resolves both.
			if seen[e.name] {
				panic(fmt.Sprintf("bench: duplicate benchmark name %q", e.name))
			}
			seen[e.name] = true
			hashes = append(hashes, nameHash(e.name))
		}
		famEnd[f] = len(hashes)
	}
	nameHashes = slices.Clone(hashes) // without append's spare capacity
	if n := famEnd[corpusFamilies-1]; n != Count {
		panic(fmt.Sprintf("bench: corpus has %d entries, want %d", n, Count))
	}
}
