// Package figures assembles and renders the paper's evaluation
// artifacts from campaign cell results:
//
//   - Figure 2: for every benchmark, the number of distinct terminal
//     HBRs (x) vs distinct terminal lazy HBRs (y) explored by DPOR
//     within the schedule limit, plus the summary statistics (how many
//     benchmarks fall below the diagonal; what fraction of unique HBRs
//     is lazy-redundant across them).
//   - Figure 3: the number of distinct terminal lazy HBRs reached by
//     regular HBR caching (x) vs lazy HBR caching (y), plus the
//     below-diagonal count and the additional-coverage percentage.
//   - The bug-finding table (firstbug.go).
//
// The package runs nothing: cmd/eval runs the cells through the sct
// campaign, and the builders here take its results (or a JSONL stream
// parsed back with sct.ReadResults), which they validate as outside
// input. Output formats: TSV rows (machine-readable), an ASCII log-log
// scatter (the figures' shape at a glance) and markdown tables for
// EXPERIMENTS.md.
package figures

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/campaign"
)

// The registry engine specs behind each figure: Figure 2 is one
// Fig2Engine cell per benchmark, Figure 3 one Fig3Regular and one
// Fig3Lazy cell per benchmark.
const (
	Fig2Engine  = "dpor"
	Fig3Regular = "hbr-caching"
	Fig3Lazy    = "lazy-hbr-caching"
)

// limitText renders a schedule limit for the markdown notes; 0 is no
// limit.
func limitText(limit int) string {
	if limit == 0 {
		return "unlimited"
	}
	return strconv.Itoa(limit)
}

// cellID checks one streamed cell result and resolves its benchmark's
// ID.
func cellID(r campaign.CellResult) (int, error) {
	if r.Err != "" {
		return 0, fmt.Errorf("figures: %s/%s: %s", r.Cell.Bench, r.Cell.Engine, r.Err)
	}
	id, ok := bench.IDOf(r.Cell.Bench)
	if !ok {
		return 0, fmt.Errorf("figures: unknown benchmark %q in cell stream", r.Cell.Bench)
	}
	return id, nil
}

// Fig2Row is one benchmark's Figure 2 point.
type Fig2Row struct {
	ID        int
	Name      string
	Schedules int
	HBRs      int
	LazyHBRs  int
	States    int
	// HitLimit mirrors the paper's underlining: the schedule limit
	// stopped the search, so unexplored terminal states likely
	// remain.
	HitLimit bool
}

// Fig2FromCells builds Figure 2 rows from campaign cell results: one
// Fig2Engine cell per benchmark, in any order (e.g. parsed back from
// an `eval -fig campaign -json` run). A cell of another engine or a
// second cell for one benchmark is an error.
func Fig2FromCells(results []campaign.CellResult) ([]Fig2Row, error) {
	rows := make([]Fig2Row, 0, len(results))
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		id, err := cellID(r)
		if err != nil {
			return nil, err
		}
		if r.Cell.Engine != Fig2Engine {
			return nil, fmt.Errorf("figures: unexpected engine %q in Figure 2 cell stream (want %q)", r.Cell.Engine, Fig2Engine)
		}
		name := r.Cell.Bench
		if seen[name] {
			return nil, fmt.Errorf("figures: benchmark %q has more than one Figure 2 cell", name)
		}
		seen[name] = true
		rows = append(rows, Fig2Row{
			ID:        id,
			Name:      name,
			Schedules: r.Result.Schedules,
			HBRs:      r.Result.DistinctHBRs,
			LazyHBRs:  r.Result.DistinctLazyHBRs,
			States:    r.Result.DistinctStates,
			HitLimit:  r.Result.HitLimit,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows, nil
}

// Fig2Summary aggregates Figure 2 the way the paper's prose does.
type Fig2Summary struct {
	Benchmarks int
	// BelowDiagonal counts benchmarks with LazyHBRs < HBRs.
	BelowDiagonal int
	// HBRsBelow and RedundantBelow sum, over below-diagonal
	// benchmarks, the unique HBRs explored and how many of them were
	// lazy-redundant (HBRs − LazyHBRs). The paper reports 910,007
	// redundant (80%) across its 33 below-diagonal benchmarks.
	HBRsBelow      int
	RedundantBelow int
}

// RedundantPct is the percentage of unique HBRs that were redundant
// across the below-diagonal benchmarks.
func (s Fig2Summary) RedundantPct() float64 {
	if s.HBRsBelow == 0 {
		return 0
	}
	return 100 * float64(s.RedundantBelow) / float64(s.HBRsBelow)
}

// SummarizeFig2 computes the paper's Figure 2 prose statistics.
func SummarizeFig2(rows []Fig2Row) Fig2Summary {
	s := Fig2Summary{Benchmarks: len(rows)}
	for _, r := range rows {
		if r.LazyHBRs < r.HBRs {
			s.BelowDiagonal++
			s.HBRsBelow += r.HBRs
			s.RedundantBelow += r.HBRs - r.LazyHBRs
		}
	}
	return s
}

// Fig3Row is one benchmark's Figure 3 point: distinct terminal lazy
// HBRs reached by each caching engine within the limit.
type Fig3Row struct {
	ID   int
	Name string
	// RegularCaching is the x axis (#lazy HBRs reached by regular
	// HBR caching); LazyCaching is the y axis.
	RegularCaching int
	LazyCaching    int
	HitLimitReg    bool
	HitLimitLazy   bool
}

// Fig3FromCells builds Figure 3 rows from campaign cell results: for
// every benchmark, one Fig3Regular and one Fig3Lazy cell, in any
// order. A cell of another engine, a second cell for one (benchmark,
// engine) pair or a benchmark missing one of its two cells is an
// error.
func Fig3FromCells(results []campaign.CellResult) ([]Fig3Row, error) {
	byBench := map[string]*Fig3Row{}
	for _, r := range results {
		id, err := cellID(r)
		if err != nil {
			return nil, err
		}
		name := r.Cell.Bench
		row := byBench[name]
		if row == nil {
			row = &Fig3Row{ID: id, Name: name, RegularCaching: -1, LazyCaching: -1}
			byBench[name] = row
		}
		switch eng := r.Cell.Engine; {
		case eng == Fig3Regular && row.RegularCaching < 0:
			row.RegularCaching, row.HitLimitReg = r.Result.DistinctLazyHBRs, r.Result.HitLimit
		case eng == Fig3Lazy && row.LazyCaching < 0:
			row.LazyCaching, row.HitLimitLazy = r.Result.DistinctLazyHBRs, r.Result.HitLimit
		case eng == Fig3Regular || eng == Fig3Lazy:
			return nil, fmt.Errorf("figures: benchmark %q has more than one %s cell", name, eng)
		default:
			return nil, fmt.Errorf("figures: unexpected engine %q in Figure 3 cell stream", eng)
		}
	}
	rows := make([]Fig3Row, 0, len(byBench))
	for _, row := range byBench {
		if row.RegularCaching < 0 || row.LazyCaching < 0 {
			return nil, fmt.Errorf("figures: benchmark %q is missing one of its two caching cells", row.Name)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows, nil
}

// Fig3Summary aggregates Figure 3 the way the paper's prose does. The
// paper's diagram puts regular caching on x and lazy caching on y, and
// counts benchmarks *below* the diagonal as those where regular
// caching reached fewer lazy HBRs — i.e. lazy caching explored more.
// (Axis conventions differ between the two figures in the paper; we
// follow the prose: "18 benchmarks ... lazy HBR caching explored a
// total of 8,969 (84%) more terminal lazy HBRs".)
type Fig3Summary struct {
	Benchmarks int
	// LazyWins counts benchmarks where lazy caching reached strictly
	// more terminal lazy HBRs within the limit.
	LazyWins int
	// RegularSumWins / ExtraLazyHBRs sum, over those benchmarks, the
	// lazy HBRs reached by regular caching and the additional ones
	// lazy caching reached.
	RegularSumWins int
	ExtraLazyHBRs  int
	// RegularWins counts benchmarks where regular caching reached
	// more (must be 0: regular caching never prunes a class lazy
	// caching keeps).
	RegularWins int
}

// ExtraPct is the additional coverage percentage across LazyWins
// benchmarks.
func (s Fig3Summary) ExtraPct() float64 {
	if s.RegularSumWins == 0 {
		return 0
	}
	return 100 * float64(s.ExtraLazyHBRs) / float64(s.RegularSumWins)
}

// SummarizeFig3 computes the paper's Figure 3 prose statistics.
func SummarizeFig3(rows []Fig3Row) Fig3Summary {
	s := Fig3Summary{Benchmarks: len(rows)}
	for _, r := range rows {
		switch {
		case r.LazyCaching > r.RegularCaching:
			s.LazyWins++
			s.RegularSumWins += r.RegularCaching
			s.ExtraLazyHBRs += r.LazyCaching - r.RegularCaching
		case r.RegularCaching > r.LazyCaching:
			s.RegularWins++
		}
	}
	return s
}

// TSV2 renders Figure 2 rows as a TSV table.
func TSV2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("id\tname\tschedules\thbrs\tlazy_hbrs\tstates\thit_limit\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%v\n",
			r.ID, r.Name, r.Schedules, r.HBRs, r.LazyHBRs, r.States, r.HitLimit)
	}
	return b.String()
}

// TSV3 renders Figure 3 rows as a TSV table.
func TSV3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("id\tname\thbr_caching_lazy_hbrs\tlazy_caching_lazy_hbrs\thit_limit_reg\thit_limit_lazy\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%v\t%v\n",
			r.ID, r.Name, r.RegularCaching, r.LazyCaching, r.HitLimitReg, r.HitLimitLazy)
	}
	return b.String()
}

// Point is one scatter point.
type Point struct {
	ID   int
	X, Y int
}

// Scatter renders points on a log-log ASCII grid with equal axes and a
// diagonal, mirroring the paper's plots: points below the diagonal are
// benchmarks where y < x. Points are drawn as the last two digits of
// their ID ('#' marks collisions).
func Scatter(points []Point, width, height int, xlabel, ylabel string) string {
	if width < 20 {
		width = 20
	}
	if height < 10 {
		height = 10
	}
	maxV := 1.0
	for _, p := range points {
		maxV = math.Max(maxV, math.Max(float64(p.X), float64(p.Y)))
	}
	logMax := math.Log10(maxV)
	if logMax <= 0 {
		logMax = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	// Diagonal y = x.
	for c := 0; c < width; c++ {
		rFrac := float64(c) / float64(width-1)
		row := height - 1 - int(rFrac*float64(height-1)+0.5)
		grid[row][c] = '.'
	}
	cell := func(v int) float64 {
		if v < 1 {
			v = 1
		}
		return math.Log10(float64(v)) / logMax
	}
	for _, p := range points {
		c := int(cell(p.X)*float64(width-2) + 0.5)
		r := height - 1 - int(cell(p.Y)*float64(height-1)+0.5)
		label := fmt.Sprintf("%d", p.ID%100)
		for k := 0; k < len(label) && c+k < width; k++ {
			if grid[r][c+k] != ' ' && grid[r][c+k] != '.' {
				grid[r][c+k] = '#'
			} else {
				grid[r][c+k] = label[k]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (log scale up to %.0f) vs %s\n", ylabel, maxV, xlabel)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "> " + xlabel + "\n")
	return b.String()
}

// Fig2Points adapts Figure 2 rows for Scatter (x=HBRs, y=lazy HBRs).
func Fig2Points(rows []Fig2Row) []Point {
	out := make([]Point, len(rows))
	for i, r := range rows {
		out[i] = Point{ID: r.ID, X: r.HBRs, Y: r.LazyHBRs}
	}
	return out
}

// Fig3Points adapts Figure 3 rows for Scatter (x=regular caching,
// y=lazy caching).
func Fig3Points(rows []Fig3Row) []Point {
	out := make([]Point, len(rows))
	for i, r := range rows {
		out[i] = Point{ID: r.ID, X: r.RegularCaching, Y: r.LazyCaching}
	}
	return out
}

// MarkdownFig2 renders Figure 2 rows plus summary as markdown, for
// EXPERIMENTS.md.
func MarkdownFig2(rows []Fig2Row, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| id | benchmark | schedules | #HBRs | #lazy HBRs | #states | hit limit |\n")
	fmt.Fprintf(&b, "|---:|---|---:|---:|---:|---:|:--|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %s | %d | %d | %d | %d | %v |\n",
			r.ID, r.Name, r.Schedules, r.HBRs, r.LazyHBRs, r.States, r.HitLimit)
	}
	s := SummarizeFig2(rows)
	fmt.Fprintf(&b, "\nSchedule limit %s. %d/%d benchmarks below the diagonal; across them %d of %d unique HBRs (%.0f%%) were lazy-redundant.\n",
		limitText(limit), s.BelowDiagonal, s.Benchmarks, s.RedundantBelow, s.HBRsBelow, s.RedundantPct())
	return b.String()
}

// MarkdownFig3 renders Figure 3 rows plus summary as markdown.
func MarkdownFig3(rows []Fig3Row, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| id | benchmark | HBR caching (#lazy HBRs) | lazy HBR caching (#lazy HBRs) | hit limit (reg/lazy) |\n")
	fmt.Fprintf(&b, "|---:|---|---:|---:|:--|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %s | %d | %d | %v/%v |\n",
			r.ID, r.Name, r.RegularCaching, r.LazyCaching, r.HitLimitReg, r.HitLimitLazy)
	}
	s := SummarizeFig3(rows)
	fmt.Fprintf(&b, "\nSchedule limit %s. Lazy caching reached more terminal lazy HBRs on %d/%d benchmarks (regular caching never on any: %d), exploring %d (%.0f%%) more across them.\n",
		limitText(limit), s.LazyWins, s.Benchmarks, s.RegularWins, s.ExtraLazyHBRs, s.ExtraPct())
	return b.String()
}
