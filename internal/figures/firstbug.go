// The bug-finding table: for every benchmark × engine cell run in
// first-bug mode (campaign.Cell.StopAtFirstBug), how many schedules
// each technique executed before hitting its first violation — the
// paper's core comparison of testing techniques.
package figures

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/campaign"
)

// FirstBugCell is one (benchmark, engine) bug-finding measurement.
type FirstBugCell struct {
	// Schedules is the schedules-to-first-bug index; 0 when the engine
	// found no violation within its budget.
	Schedules int
	// Kind names the violation found ("" when none).
	Kind string
	// HitLimit marks a bug-free cell that exhausted its schedule
	// budget (so a bug might still hide beyond it); a bug-free cell
	// without HitLimit proved its space violation-free.
	HitLimit bool
	// Err carries a cell-level failure.
	Err string
}

// FirstBugRow is one benchmark's row across all engines.
type FirstBugRow struct {
	Bench string
	Cells []FirstBugCell
}

// FirstBugTable is the assembled benchmark × engine bug-finding grid.
type FirstBugTable struct {
	// Engines are the column labels, in campaign order.
	Engines []string
	Rows    []FirstBugRow
}

// FirstBugFromCells assembles the table from first-bug campaign
// results in any order: it sorts results in place by cell Index, which
// restores the grid order, rather than copying a campaign-sized slice.
func FirstBugFromCells(results []campaign.CellResult) FirstBugTable {
	slices.SortFunc(results, func(a, b campaign.CellResult) int { return cmp.Compare(a.Index, b.Index) })

	var t FirstBugTable
	engineIdx := map[string]int{}
	rowIdx := map[string]int{}
	for _, r := range results {
		eng := string(r.Cell.Engine)
		if _, ok := engineIdx[eng]; !ok {
			engineIdx[eng] = len(t.Engines)
			t.Engines = append(t.Engines, eng)
		}
		if _, ok := rowIdx[r.Cell.Bench]; !ok {
			rowIdx[r.Cell.Bench] = len(t.Rows)
			t.Rows = append(t.Rows, FirstBugRow{Bench: r.Cell.Bench})
		}
	}
	for i := range t.Rows {
		t.Rows[i].Cells = make([]FirstBugCell, len(t.Engines))
	}
	for _, r := range results {
		cell := FirstBugCell{
			Schedules: r.Result.FirstBugSchedule,
			Kind:      r.Result.ViolationKind,
			HitLimit:  r.Result.HitLimit,
			Err:       r.Err,
		}
		t.Rows[rowIdx[r.Cell.Bench]].Cells[engineIdx[string(r.Cell.Engine)]] = cell
	}
	return t
}

// cellText renders one cell: the schedules-to-first-bug count, "-"
// for a proven-clean cell, ">limit" for a budget-exhausted clean cell,
// "ERR" for a failed cell. When mixed is set — the row's engines found
// violations of different kinds — each buggy cell is annotated with a
// short tag of *its* kind, since the row's kind column alone can no
// longer say which engine found what.
func (c FirstBugCell) cellText(mixed bool) string {
	switch {
	case c.Err != "":
		return "ERR"
	case c.Schedules > 0:
		if mixed {
			return fmt.Sprintf("%d (%s)", c.Schedules, shortKind(c.Kind))
		}
		return fmt.Sprintf("%d", c.Schedules)
	case c.HitLimit:
		return ">limit"
	default:
		return "-"
	}
}

// shortKind abbreviates a violation kind for in-cell annotations.
func shortKind(kind string) string {
	switch kind {
	case "assertion failure":
		return "assert"
	case "lock misuse":
		return "lock"
	case "data race":
		return "race"
	default:
		return kind
	}
}

// rowKinds collects the distinct violation kinds a row's cells found,
// in cell order. Different engines can legitimately trip different
// violations of one benchmark first (a random walk may hit the data
// race, DFS the assertion behind it), so the row's kind is a set.
func rowKinds(row FirstBugRow) []string {
	var kinds []string
	for _, c := range row.Cells {
		if c.Kind == "" {
			continue
		}
		seen := false
		for _, k := range kinds {
			if k == c.Kind {
				seen = true
				break
			}
		}
		if !seen {
			kinds = append(kinds, c.Kind)
		}
	}
	return kinds
}

// FirstBugSummary aggregates one engine column.
type FirstBugSummary struct {
	Engine string
	// Found counts benchmarks where the engine hit a bug; Buggy is
	// the number of benchmarks where *any* engine did.
	Found, Buggy int
	// TotalSchedules sums schedules-to-first-bug over the benchmarks
	// where every engine found a bug (the paper's comparable subset);
	// Comparable is that subset's size.
	TotalSchedules int
	Comparable     int
}

// SummarizeFirstBug aggregates per-engine bug-finding power: how many
// of the buggy benchmarks each engine cracked, and the total
// schedules-to-first-bug over the subset every engine cracked.
func SummarizeFirstBug(t FirstBugTable) []FirstBugSummary {
	buggy := 0
	allFound := make([]bool, len(t.Rows))
	for i, row := range t.Rows {
		any, all := false, true
		for _, c := range row.Cells {
			if c.Schedules > 0 {
				any = true
			} else {
				all = false
			}
		}
		if any {
			buggy++
		}
		allFound[i] = any && all
	}
	out := make([]FirstBugSummary, len(t.Engines))
	for e := range t.Engines {
		s := FirstBugSummary{Engine: t.Engines[e], Buggy: buggy}
		for i, row := range t.Rows {
			c := row.Cells[e]
			if c.Schedules > 0 {
				s.Found++
			}
			if allFound[i] {
				s.Comparable++
				s.TotalSchedules += c.Schedules
			}
		}
		out[e] = s
	}
	return out
}

// TSVFirstBug renders the table as TSV (benchmarks × engines).
func TSVFirstBug(t FirstBugTable) string {
	var b strings.Builder
	b.WriteString("benchmark")
	for _, e := range t.Engines {
		b.WriteString("\t")
		b.WriteString(e)
	}
	b.WriteString("\tkind\n")
	for _, row := range t.Rows {
		b.WriteString(row.Bench)
		kinds := rowKinds(row)
		mixed := len(kinds) > 1
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "\t%s", c.cellText(mixed))
		}
		fmt.Fprintf(&b, "\t%s\n", strings.Join(kinds, ", "))
	}
	return b.String()
}

// MarkdownFirstBug renders the table plus per-engine summary as
// markdown.
func MarkdownFirstBug(t FirstBugTable, limit int) string {
	var b strings.Builder
	b.WriteString("| benchmark |")
	for _, e := range t.Engines {
		fmt.Fprintf(&b, " %s |", e)
	}
	b.WriteString(" kind |\n|---|")
	for range t.Engines {
		b.WriteString("---:|")
	}
	b.WriteString(":--|\n")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |", row.Bench)
		kinds := rowKinds(row)
		mixed := len(kinds) > 1
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %s |", c.cellText(mixed))
		}
		fmt.Fprintf(&b, " %s |\n", strings.Join(kinds, ", "))
	}
	fmt.Fprintf(&b, "\nSchedule limit %s; cells show schedules executed until the first bug (\"-\" = space exhausted bug-free, \">limit\" = budget exhausted without a bug).\n\n", limitText(limit))
	b.WriteString(firstBugSummaryText(t))
	return b.String()
}

// firstBugSummaryText renders the per-engine summary lines shared by
// the markdown and plain renderings.
func firstBugSummaryText(t FirstBugTable) string {
	var b strings.Builder
	for _, s := range SummarizeFirstBug(t) {
		line := fmt.Sprintf("%-20s found %d/%d bugs", s.Engine, s.Found, s.Buggy)
		if s.Comparable > 0 {
			line += fmt.Sprintf("; %d schedules total over the %d bugs every engine found",
				s.TotalSchedules, s.Comparable)
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// SummaryFirstBug renders the per-engine summary for terminal output.
func SummaryFirstBug(t FirstBugTable) string { return firstBugSummaryText(t) }
