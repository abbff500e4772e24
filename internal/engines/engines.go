// Package engines is the single engine registry behind the public sct
// facade: every exploration engine the harness knows is registered
// here under its canonical spec name, and every consumer — the
// campaign runner's EngineSpec grammar and the sct facade itself —
// builds engines through this one table instead of a private string
// switch.
//
// A spec is a colon-separated name plus optional arguments
// ("dpor+sleep", "pct:3:7", "pdpor:4"); Build parses it and hands
// the arguments to the registered Builder. The sequential engines of
// internal/explore register at package init; the parallel search
// self-registers from internal/campaign (so it exists exactly in
// binaries that link the campaign runner); external embedders add
// their own engines through sct.Register.
package engines

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/explore"
)

// Builder constructs an engine from the colon-separated arguments of
// a spec string (the part after the engine name). Builders validate
// their arguments and must be safe for concurrent use.
type Builder func(args []string) (explore.Engine, error)

// Info describes one registered engine.
type Info struct {
	// Name is the canonical spec name ("dpor+sleep", "pb", "pdpor").
	Name string
	// Usage documents the spec grammar ("pct:d[:seed]"), empty
	// when the name alone is the spec. Build rejects a spec with more
	// arguments than the grammar has slots (see argSlots).
	Usage string
	// Summary is a one-line description for listings.
	Summary string
	// Parallel marks engines that fan one search out across workers.
	Parallel bool
	// Grid lists the specs this engine contributes to the canonical
	// default engine grid (DefaultGrid); empty for engines that are
	// ablation baselines or need explicit arguments to be meaningful.
	Grid []string
	// Build instantiates the engine from spec arguments.
	Build Builder
}

var (
	mu      sync.RWMutex
	byName  = map[string]Info{}
	inOrder []string // registration order = canonical order
)

// Register adds an engine to the registry. The name must be non-empty,
// colon- and comma-free (it has to survive the spec and flag
// grammars), unused, and the builder non-nil; violations panic, since
// they are programmer errors at package init or embedder setup time.
func Register(info Info) {
	if info.Name == "" {
		panic("engines: Register with empty name")
	}
	for _, c := range info.Name {
		if c == ':' || c == ',' || c == ' ' {
			panic(fmt.Sprintf("engines: name %q contains spec-grammar separator %q", info.Name, c))
		}
	}
	if info.Build == nil {
		panic(fmt.Sprintf("engines: Register(%q) with nil builder", info.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byName[info.Name]; dup {
		panic(fmt.Sprintf("engines: duplicate registration of %q", info.Name))
	}
	byName[info.Name] = info
	inOrder = append(inOrder, info.Name)
}

// Lookup returns the registration for an engine name (not a full
// spec: "pb", not "pb:2").
func Lookup(name string) (Info, bool) {
	mu.RLock()
	defer mu.RUnlock()
	info, ok := byName[name]
	return info, ok
}

// Names lists the registered engine names in canonical order
// (sequential engines first, in registration order, then whatever
// else the linked packages and the embedder registered).
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), inOrder...)
}

// All lists the registrations in canonical order.
func All() []Info {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Info, len(inOrder))
	for i, n := range inOrder {
		out[i] = byName[n]
	}
	return out
}

// DefaultGrid returns the canonical default engine grid — the
// spec list evaluation sweeps (the paper-style bug-finding table)
// default to — assembled from each registration's Grid contribution in
// canonical order.
func DefaultGrid() []string {
	var out []string
	for _, info := range All() {
		out = append(out, info.Grid...)
	}
	return out
}

// Build parses a spec ("name[:arg[:arg...]]") and instantiates the
// named engine.
func Build(spec string) (explore.Engine, error) {
	name, args, _ := strings.Cut(spec, ":")
	var argv []string
	if args != "" {
		argv = strings.Split(args, ":")
	}
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engines: unknown engine spec %q (registered: %v)", spec, Names())
	}
	if n, ok := argSlots(info.Usage); ok && len(argv) > n {
		return nil, fmt.Errorf("engines: bad engine spec %q: more than %d argument(s) for %q", spec, n, cmp.Or(info.Usage, name))
	}
	eng, err := info.Build(argv)
	if err != nil {
		return nil, fmt.Errorf("engines: bad engine spec %q: %w", spec, err)
	}
	return eng, nil
}

// argSlots counts the argument slots of a Usage grammar: every colon
// opens one. A free-form <placeholder>, which may hold colons, has no
// fixed count.
func argSlots(usage string) (n int, ok bool) {
	if strings.Contains(usage, "<") {
		return 0, false
	}
	return strings.Count(usage, ":"), true
}

// IntArg parses argv[i] as an int, with a default when the argument
// is absent — the shared helper for numeric spec arguments.
func IntArg(argv []string, i, dflt int) (int, error) {
	if i >= len(argv) {
		return dflt, nil
	}
	n, err := strconv.Atoi(argv[i])
	if err != nil {
		return 0, fmt.Errorf("argument %d: %v", i+1, err)
	}
	return n, nil
}

// NoArgs adapts a constructor to a Builder, for engines whose spec
// takes no arguments (an empty Usage).
func NoArgs(build func() explore.Engine) Builder {
	return func([]string) (explore.Engine, error) { return build(), nil }
}
