package figures

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/explore"
)

// TestFirstBugTableAssembly feeds hand-built cell results through the
// table, summary and both renderers.
func TestFirstBugTableAssembly(t *testing.T) {
	cell := func(idx int, bench, eng string, bug int, kind string, hitLimit bool) campaign.CellResult {
		res := explore.Result{Program: bench, Engine: eng, Schedules: bug + 3, HitLimit: hitLimit}
		if bug > 0 {
			res.FirstBugSchedule = bug
			res.ViolationKind = kind
		}
		return campaign.CellResult{
			Index:  idx,
			Cell:   campaign.Cell{Bench: bench, Engine: campaign.EngineSpec(eng), StopAtFirstBug: true},
			Result: res,
		}
	}
	// Completion order scrambled on purpose; Index restores the grid.
	results := []campaign.CellResult{
		cell(3, "b", "dpor", 2, "deadlock", false),
		cell(0, "a", "dfs", 7, "assertion failure", false),
		cell(2, "b", "dfs", 0, "", true),
		cell(1, "a", "dpor", 3, "assertion failure", false),
	}
	table := FirstBugFromCells(results)
	if len(table.Engines) != 2 || table.Engines[0] != "dfs" || table.Engines[1] != "dpor" {
		t.Fatalf("engine columns %v, want [dfs dpor]", table.Engines)
	}
	if len(table.Rows) != 2 || table.Rows[0].Bench != "a" || table.Rows[1].Bench != "b" {
		t.Fatalf("rows %+v, want benches a,b", table.Rows)
	}
	if got := table.Rows[0].Cells[0].Schedules; got != 7 {
		t.Errorf("a/dfs schedules-to-bug = %d, want 7", got)
	}
	if got := table.Rows[1].Cells[0]; got.Schedules != 0 || !got.HitLimit {
		t.Errorf("b/dfs cell %+v, want budget-exhausted no-bug", got)
	}

	sums := SummarizeFirstBug(table)
	if sums[0].Found != 1 || sums[1].Found != 2 || sums[0].Buggy != 2 {
		t.Errorf("summary %+v, want dfs 1/2 and dpor 2/2", sums)
	}
	// Only bench "a" was cracked by every engine: comparable subset
	// size 1, totals 7 vs 3.
	if sums[0].Comparable != 1 || sums[0].TotalSchedules != 7 || sums[1].TotalSchedules != 3 {
		t.Errorf("comparable-subset totals %+v, want 7 vs 3 over 1 benchmark", sums)
	}

	tsv := TSVFirstBug(table)
	for _, want := range []string{"benchmark\tdfs\tdpor\tkind", "a\t7\t3\tassertion failure", "b\t>limit\t2\tdeadlock"} {
		if !strings.Contains(tsv, want) {
			t.Errorf("TSV missing %q:\n%s", want, tsv)
		}
	}
	md := MarkdownFirstBug(table, 500)
	for _, want := range []string{"| a | 7 | 3 | assertion failure |", "| b | >limit | 2 | deadlock |", "Schedule limit 500"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if md := MarkdownFirstBug(table, 0); !strings.Contains(md, "Schedule limit unlimited;") {
		t.Errorf("markdown limit 0 not rendered as unlimited:\n%s", md)
	}
	if sum := SummaryFirstBug(table); !strings.Contains(sum, "found 1/2 bugs") || !strings.Contains(sum, "found 2/2 bugs") {
		t.Errorf("summary rendering wrong:\n%s", sum)
	}
}

// TestFirstBugErrCell: a failed cell renders as ERR, not as a clean
// no-bug cell.
func TestFirstBugErrCell(t *testing.T) {
	results := []campaign.CellResult{{
		Index: 0,
		Cell:  campaign.Cell{Bench: "a", Engine: "dfs"},
		Err:   "boom",
	}}
	table := FirstBugFromCells(results)
	if got := TSVFirstBug(table); !strings.Contains(got, "ERR") {
		t.Errorf("error cell not rendered:\n%s", got)
	}
}

// TestFirstBugMixedKinds: when the engines of one row trip different
// violations, the kind column lists every distinct kind and each buggy
// cell carries a short tag of its own; homogeneous rows render exactly
// as before (no per-cell annotation).
func TestFirstBugMixedKinds(t *testing.T) {
	cell := func(idx int, bench, eng string, bug int, kind string) campaign.CellResult {
		res := explore.Result{Program: bench, Engine: eng, Schedules: bug + 1}
		if bug > 0 {
			res.FirstBugSchedule = bug
			res.ViolationKind = kind
		}
		return campaign.CellResult{
			Index:  idx,
			Cell:   campaign.Cell{Bench: bench, Engine: campaign.EngineSpec(eng), StopAtFirstBug: true},
			Result: res,
		}
	}
	results := []campaign.CellResult{
		cell(0, "m", "random", 4, "data race"),
		cell(1, "m", "pct:3", 9, "assertion failure"),
		cell(2, "m", "pos", 2, "data race"),
	}
	table := FirstBugFromCells(results)
	tsv := TSVFirstBug(table)
	for _, want := range []string{
		"m\t4 (race)\t9 (assert)\t2 (race)\tdata race, assertion failure",
	} {
		if !strings.Contains(tsv, want) {
			t.Errorf("TSV missing %q:\n%s", want, tsv)
		}
	}
	md := MarkdownFirstBug(table, 100)
	if want := "| m | 4 (race) | 9 (assert) | 2 (race) | data race, assertion failure |"; !strings.Contains(md, want) {
		t.Errorf("markdown missing %q:\n%s", want, md)
	}
}
