package figures

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/sct"
)

// smallCorpus is a representative slice of the corpus: coarse-lock
// (below diagonal), shared-data (diagonal) and a racy benchmark.
var smallCorpus = []string{
	"coarse-disjoint-3x1",
	"coarse-readonly-3",
	"coarse-shared-3",
	"bank-global-2",
	"counter-racy-2x1",
	"philosophers-2",
}

// sweep runs smallCorpus × engines through an sct campaign, as
// cmd/eval does, and returns the finished cells.
func sweep(t *testing.T, limit int, engines ...string) []campaign.CellResult {
	t.Helper()
	cells, err := sct.Grid(smallCorpus, engines, sct.WithBounds(limit, 500))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sct.NewCampaign(cells)
	if err != nil {
		t.Fatal(err)
	}
	var out []campaign.CellResult
	for r := range camp.Results(context.Background()) {
		out = append(out, r)
	}
	if err := camp.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFig2SmallSweep(t *testing.T) {
	rows, err := Fig2FromCells(sweep(t, 5000, Fig2Engine))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if !(r.States <= r.LazyHBRs && r.LazyHBRs <= r.HBRs && r.HBRs <= r.Schedules) {
			t.Errorf("%s: inequality chain broken: %+v", r.Name, r)
		}
	}
	// Coarse-lock benchmarks collapse to a single lazy class.
	for _, n := range []string{"coarse-disjoint-3x1", "coarse-readonly-3", "bank-global-2"} {
		if r := byName[n]; r.LazyHBRs != 1 || r.HBRs <= 1 {
			t.Errorf("%s: expected below-diagonal point, got hbrs=%d lazy=%d", n, r.HBRs, r.LazyHBRs)
		}
	}
	// Shared-data benchmark sits on the diagonal.
	if r := byName["coarse-shared-3"]; r.HBRs != r.LazyHBRs {
		t.Errorf("coarse-shared-3: expected diagonal point, got hbrs=%d lazy=%d", r.HBRs, r.LazyHBRs)
	}

	s := SummarizeFig2(rows)
	if s.BelowDiagonal < 3 {
		t.Errorf("below diagonal = %d, want ≥ 3", s.BelowDiagonal)
	}
	if s.RedundantPct() <= 0 || s.RedundantPct() > 100 {
		t.Errorf("redundancy pct = %f", s.RedundantPct())
	}
}

func TestFig3SmallSweep(t *testing.T) {
	rows, err := Fig3FromCells(sweep(t, 50, Fig3Regular, Fig3Lazy))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper's guarantee: regular caching never reaches MORE
		// lazy classes than lazy caching within the same budget.
		if r.RegularCaching > r.LazyCaching {
			t.Errorf("%s: regular caching ahead (%d > %d) — impossible", r.Name, r.RegularCaching, r.LazyCaching)
		}
	}
	s := SummarizeFig3(rows)
	if s.RegularWins != 0 {
		t.Errorf("RegularWins = %d, must be 0", s.RegularWins)
	}
	if s.ExtraPct() < 0 {
		t.Errorf("ExtraPct = %f", s.ExtraPct())
	}
}

func TestRendering(t *testing.T) {
	rows2 := []Fig2Row{
		{ID: 1, Name: "a", Schedules: 100, HBRs: 50, LazyHBRs: 10, States: 2, HitLimit: true},
		{ID: 2, Name: "b", Schedules: 10, HBRs: 5, LazyHBRs: 5, States: 5},
	}
	tsv := TSV2(rows2)
	if !strings.Contains(tsv, "a\t100\t50\t10\t2\ttrue") {
		t.Errorf("TSV2 malformed:\n%s", tsv)
	}
	md := MarkdownFig2(rows2, 1000)
	if !strings.Contains(md, "| 1 | a | 100 | 50 | 10 | 2 | true |") {
		t.Errorf("MarkdownFig2 malformed:\n%s", md)
	}
	if !strings.Contains(md, "1/2 benchmarks below the diagonal") {
		t.Errorf("summary line missing:\n%s", md)
	}

	rows3 := []Fig3Row{
		{ID: 1, Name: "a", RegularCaching: 3, LazyCaching: 9},
		{ID: 2, Name: "b", RegularCaching: 4, LazyCaching: 4},
	}
	tsv3 := TSV3(rows3)
	if !strings.Contains(tsv3, "a\t3\t9") {
		t.Errorf("TSV3 malformed:\n%s", tsv3)
	}
	md3 := MarkdownFig3(rows3, 1000)
	if !strings.Contains(md3, "1/2 benchmarks") {
		t.Errorf("MarkdownFig3 summary wrong:\n%s", md3)
	}
	// A schedule limit of 0 is no limit, and the notes say so.
	if md := MarkdownFig2(rows2, 0); !strings.Contains(md, "Schedule limit unlimited.") {
		t.Errorf("MarkdownFig2 limit 0 not rendered as unlimited:\n%s", md)
	}
	if md := MarkdownFig3(rows3, 0); !strings.Contains(md, "Schedule limit unlimited.") {
		t.Errorf("MarkdownFig3 limit 0 not rendered as unlimited:\n%s", md)
	}
	if !strings.Contains(md, "Schedule limit 1000.") {
		t.Errorf("MarkdownFig2 limit 1000 line missing:\n%s", md)
	}

	sc := Scatter(Fig2Points(rows2), 40, 12, "x", "y")
	if !strings.Contains(sc, "1") || !strings.Contains(sc, ".") {
		t.Errorf("scatter missing point or diagonal:\n%s", sc)
	}
	sc3 := Scatter(Fig3Points(rows3), 40, 12, "x", "y")
	if len(strings.Split(sc3, "\n")) < 12 {
		t.Error("scatter too short")
	}
	// Degenerate sizes are clamped, single point at origin works.
	_ = Scatter([]Point{{ID: 7, X: 1, Y: 1}}, 1, 1, "x", "y")
}

func TestSummaryArithmetic(t *testing.T) {
	s := SummarizeFig2([]Fig2Row{
		{HBRs: 100, LazyHBRs: 20},
		{HBRs: 10, LazyHBRs: 10},
		{HBRs: 50, LazyHBRs: 40},
	})
	if s.BelowDiagonal != 2 || s.HBRsBelow != 150 || s.RedundantBelow != 90 {
		t.Errorf("summary = %+v", s)
	}
	if got := s.RedundantPct(); got != 60 {
		t.Errorf("pct = %f, want 60", got)
	}
	empty := SummarizeFig2(nil)
	if empty.RedundantPct() != 0 {
		t.Error("empty summary pct must be 0")
	}

	s3 := SummarizeFig3([]Fig3Row{
		{RegularCaching: 10, LazyCaching: 15},
		{RegularCaching: 5, LazyCaching: 5},
	})
	if s3.LazyWins != 1 || s3.ExtraLazyHBRs != 5 || s3.ExtraPct() != 50 {
		t.Errorf("fig3 summary = %+v", s3)
	}
}

// TestFromCellsRejects: the figure builders read streams parsed back
// from JSONL, so a stream that does not describe exactly one figure is
// an error, not a silently doubled or overwritten row.
func TestFromCellsRejects(t *testing.T) {
	cell := func(bench, engine string) campaign.CellResult {
		return campaign.CellResult{Cell: campaign.Cell{Bench: bench, Engine: campaign.EngineSpec(engine)}}
	}
	failed := cell("peterson-2", Fig2Engine)
	failed.Err = "boom"
	cases := []struct {
		name  string
		fig   int
		cells []campaign.CellResult
		want  string
	}{
		{"fig2 other engine", 2, []campaign.CellResult{cell("peterson-2", "lazy-dpor")}, `unexpected engine "lazy-dpor"`},
		{"fig2 duplicate bench", 2, []campaign.CellResult{cell("peterson-2", Fig2Engine), cell("peterson-2", Fig2Engine)}, "more than one Figure 2 cell"},
		{"fig2 failed cell", 2, []campaign.CellResult{failed}, "boom"},
		{"fig2 unknown bench", 2, []campaign.CellResult{cell("no-such-bench", Fig2Engine)}, "unknown benchmark"},
		{"fig3 duplicate regular", 3, []campaign.CellResult{cell("peterson-2", Fig3Regular), cell("peterson-2", Fig3Lazy), cell("peterson-2", Fig3Regular)}, "more than one hbr-caching cell"},
		{"fig3 duplicate lazy", 3, []campaign.CellResult{cell("peterson-2", Fig3Lazy), cell("peterson-2", Fig3Lazy)}, "more than one lazy-hbr-caching cell"},
		{"fig3 other engine", 3, []campaign.CellResult{cell("peterson-2", Fig2Engine)}, `unexpected engine "dpor"`},
		{"fig3 missing half", 3, []campaign.CellResult{cell("peterson-2", Fig3Lazy)}, "missing one of its two caching cells"},
	}
	for _, tc := range cases {
		var err error
		if tc.fig == 2 {
			_, err = Fig2FromCells(tc.cells)
		} else {
			_, err = Fig3FromCells(tc.cells)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// One cell per benchmark (Figure 2) and one per (benchmark,
	// engine) pair (Figure 3) is accepted.
	if _, err := Fig2FromCells([]campaign.CellResult{cell("peterson-2", Fig2Engine), cell("dcl-2", Fig2Engine)}); err != nil {
		t.Errorf("valid Figure 2 stream rejected: %v", err)
	}
	if _, err := Fig3FromCells([]campaign.CellResult{cell("peterson-2", Fig3Lazy), cell("peterson-2", Fig3Regular)}); err != nil {
		t.Errorf("valid Figure 3 stream rejected: %v", err)
	}
}
