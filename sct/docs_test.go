package sct_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/sct"
)

// enginesDocRow matches a catalogue-table row of docs/ENGINES.md: a
// markdown table line whose first cell is a backticked engine name.
var enginesDocRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// TestEnginesDocInSync keeps docs/ENGINES.md's engine catalogue and
// the registry in lockstep, in both directions: every engine the doc
// catalogues must be registered, and every registered built-in must be
// catalogued. It runs under make api-check, so adding an engine
// without documenting it (or renaming one without updating the guide)
// fails CI.
func TestEnginesDocInSync(t *testing.T) {
	raw, err := os.ReadFile("../docs/ENGINES.md")
	if err != nil {
		t.Fatalf("engine-author guide missing: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if m := enginesDocRow.FindStringSubmatch(line); m != nil && m[1] != "engine" {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("docs/ENGINES.md has no catalogue table rows (| `name` | ...)")
	}

	registered := map[string]bool{}
	for _, name := range sct.EngineNames() {
		registered[name] = true
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/ENGINES.md documents engine %q, which is not registered", name)
		}
	}
	for name := range registered {
		if strings.HasPrefix(name, "custom-") {
			continue // test-local registrations (process-global registry)
		}
		if !documented[name] {
			t.Errorf("registered engine %q is missing from the docs/ENGINES.md catalogue", name)
		}
	}
}

// TestObservabilityDocInSync pins docs/OBSERVABILITY.md's counter
// catalogue to the Progress struct's JSON field names, in both
// directions: every documented counter must exist on Progress, and
// every Progress field must be catalogued. Runs under make api-check,
// so renaming a counter (or adding one undocumented) fails CI.
func TestObservabilityDocInSync(t *testing.T) {
	raw, err := os.ReadFile("../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("observability guide missing: %v", err)
	}
	// Scope to the counter-catalogue section — the doc has other
	// tables (option routing) whose rows are not counter names.
	text := string(raw)
	start := strings.Index(text, "### Counter catalogue")
	if start < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no '### Counter catalogue' section")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := enginesDocRow.FindStringSubmatch(line); m != nil && m[1] != "field" {
			documented[m[1]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("counter catalogue has no table rows (| `name` | ...)")
	}

	fields := map[string]bool{}
	pt := reflect.TypeOf(sct.Progress{})
	for i := 0; i < pt.NumField(); i++ {
		tag := pt.Field(i).Tag.Get("json")
		if name, _, _ := strings.Cut(tag, ","); name != "" && name != "-" {
			fields[name] = true
		}
	}
	for name := range documented {
		if !fields[name] {
			t.Errorf("docs/OBSERVABILITY.md catalogues counter %q, which is not a Progress JSON field", name)
		}
	}
	for name := range fields {
		if !documented[name] {
			t.Errorf("Progress field %q is missing from the docs/OBSERVABILITY.md counter catalogue", name)
		}
	}
}

// optionsDocBullet matches one bold field name, **`Field`**, in a
// bullet of docs/ENGINES.md's Options contract.
var optionsDocBullet = regexp.MustCompile("\\*\\*`([A-Za-z]+)`\\*\\*")

// TestOptionsDocInSync pins docs/ENGINES.md's Options contract to
// sct.Options (explore.Options), in both directions: every exported
// field must have a **`Field`** bullet, and every bullet must name a
// field. Runs under make api-check, so adding an option without
// documenting its contract (or removing one the doc still promises)
// fails CI.
func TestOptionsDocInSync(t *testing.T) {
	raw, err := os.ReadFile("../docs/ENGINES.md")
	if err != nil {
		t.Fatalf("engine-author guide missing: %v", err)
	}
	text := string(raw)
	start := strings.Index(text, "## The Engine interface and the Options contract")
	if start < 0 {
		t.Fatal("docs/ENGINES.md has no Options contract section")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "- ") {
			continue
		}
		for _, m := range optionsDocBullet.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}

	fields := map[string]bool{}
	ot := reflect.TypeOf(sct.Options{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); f.IsExported() {
			fields[f.Name] = true
		}
	}
	for name := range documented {
		if !fields[name] {
			t.Errorf("docs/ENGINES.md documents option %q, which is not an Options field", name)
		}
	}
	for name := range fields {
		if !documented[name] {
			t.Errorf("Options field %q has no **`%s`** bullet in the docs/ENGINES.md Options contract", name, name)
		}
	}
}

// TestChannelDocInSync pins the channel documentation to the facade
// API: docs/ENGINES.md must keep its "Channel dependence rules"
// section naming every channel event kind, the README must keep the
// channel quickstart, and every harness method both documents must
// actually exist on sct.G / sct.Program (so the docs cannot outlive a
// rename). Runs under make api-check.
func TestChannelDocInSync(t *testing.T) {
	engDoc, err := os.ReadFile("../docs/ENGINES.md")
	if err != nil {
		t.Fatalf("engine-author guide missing: %v", err)
	}
	if !strings.Contains(string(engDoc), "## Channel dependence rules") {
		t.Error("docs/ENGINES.md has no '## Channel dependence rules' section")
	}
	for _, kind := range []string{"`send`", "`recv`", "`close`", "`select`"} {
		if !strings.Contains(string(engDoc), kind) {
			t.Errorf("docs/ENGINES.md channel section does not mention %s", kind)
		}
	}

	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatalf("README missing: %v", err)
	}
	for _, ref := range []string{"p.Chan(", "g.Send", "g.Recv", "g.TryRecv", "g.Close", "g.Select", "g.TrySelect"} {
		if !strings.Contains(string(readme), ref) {
			t.Errorf("README channel quickstart does not mention %s", ref)
		}
	}

	// The documented surface must exist: Program.Chan plus the G
	// channel methods.
	if _, ok := reflect.TypeOf(&sct.Program{}).MethodByName("Chan"); !ok {
		t.Error("documented method Program.Chan does not exist")
	}
	gt := reflect.TypeOf(&sct.G{})
	for _, m := range []string{"Send", "Recv", "TryRecv", "Close", "Select", "TrySelect"} {
		if _, ok := gt.MethodByName(m); !ok {
			t.Errorf("documented method G.%s does not exist", m)
		}
	}
}
