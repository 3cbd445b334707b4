package experiments

import (
	"context"
	"strings"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/eval"
)

// testSuite builds a small-scale suite covering all four presets.
func testSuite(t *testing.T, scale float64, datasets ...string) *Suite {
	t.Helper()
	s, err := NewSuite(Options{ScaleFactor: scale, Datasets: datasets})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSuiteUnknownDataset(t *testing.T) {
	if _, err := NewSuite(Options{Datasets: []string{"nope"}}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSuiteDatasetCaching(t *testing.T) {
	s := testSuite(t, 0.05, "Restaurant")
	a, err := s.Dataset("Restaurant")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Dataset("Restaurant")
	if a != b {
		t.Error("dataset not cached")
	}
	if _, err := s.Dataset("YAGO-IMDb"); err == nil {
		t.Error("dataset outside suite should error")
	}
}

func TestTable1(t *testing.T) {
	s := testSuite(t, 0.05)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// The Rexa profile must keep its strong size skew.
	for _, r := range rows {
		if r.Dataset == "Rexa-DBLP" && r.E2Entities < 10*r.E1Entities {
			t.Errorf("Rexa skew lost: %d vs %d", r.E1Entities, r.E2Entities)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Restaurant") || !strings.Contains(text, "matches") {
		t.Error("FormatTable1 output incomplete")
	}
}

func TestTable2Shapes(t *testing.T) {
	s := testSuite(t, 0.1)
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper shape: high blocking recall, low precision, comparisons
		// far below the Cartesian product.
		if r.Recall < 0.9 {
			t.Errorf("%s: blocking recall = %v, want ≥ 0.9", r.Dataset, r.Recall)
		}
		total := r.NameComparisons + r.TokenComparisons
		if total >= r.Cartesian {
			t.Errorf("%s: comparisons %d not below Cartesian %d", r.Dataset, total, r.Cartesian)
		}
	}
	text := FormatTable2(rows)
	if !strings.Contains(text, "|BN|") {
		t.Error("FormatTable2 missing header")
	}
}

// Table 2 reports the blocks the pipeline resolves over: its |B_N|, |B_T|,
// ‖B_N‖ and ‖B_T‖ are the counts of the name and token blocks of the
// substrate built at the paper's configuration, also at a scale where Block
// Purging's budget rounds below one comparison and is raised to one.
func TestTable2ReadsPipelineBlocks(t *testing.T) {
	for _, scale := range []float64{0.02, 0.1} {
		s := testSuite(t, scale)
		rows, err := s.Table2()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(s.Names()) {
			t.Fatalf("×%v: %d rows for %d datasets", scale, len(rows), len(s.Names()))
		}
		for _, r := range rows {
			d, err := s.Dataset(r.Dataset)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := core.BuildSubstrate(context.Background(), d.K1, d.K2, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			nb, err := sub.NameBlocks()
			if err != nil {
				t.Fatal(err)
			}
			tb, err := sub.TokenBlocks()
			if err != nil {
				t.Fatal(err)
			}
			if tb.Len() == 0 {
				t.Fatalf("%s ×%v: the substrate has no token block; test is vacuous", r.Dataset, scale)
			}
			got := [4]int64{int64(r.NameBlocks), int64(r.TokenBlocks), r.NameComparisons, r.TokenComparisons}
			want := [4]int64{int64(nb.Len()), int64(tb.Len()), nb.TotalComparisons(), tb.TotalComparisons()}
			if got != want {
				t.Errorf("%s ×%v: Table 2 reads |B_N|, |B_T|, ‖B_N‖, ‖B_T‖ = %v, the substrate's blocks %v",
					r.Dataset, scale, got, want)
			}
		}
	}
}

func TestTable4RuleShapes(t *testing.T) {
	s := testSuite(t, 0.1, "Restaurant", "YAGO-IMDb")
	rows, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	get := func(ds, setting string) Table4Row {
		for _, r := range rows {
			if r.Dataset == ds && r.Setting == setting {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", ds, setting)
		return Table4Row{}
	}
	// R1 alone: high precision, partial recall (the named fraction).
	r1 := get("YAGO-IMDb", "R1")
	if r1.Metrics.Precision < 0.9 {
		t.Errorf("R1 precision = %v, want ≥ 0.9", r1.Metrics.Precision)
	}
	if r1.Metrics.Recall > 0.85 || r1.Metrics.Recall < 0.4 {
		t.Errorf("R1 recall = %v, want the named fraction (~0.66)", r1.Metrics.Recall)
	}
	// Full beats every single rule on F1.
	full := get("YAGO-IMDb", "Full")
	for _, setting := range []string{"R1", "R2"} {
		if full.Metrics.F1+1e-9 < get("YAGO-IMDb", setting).Metrics.F1 {
			t.Errorf("Full F1 %v below %s alone", full.Metrics.F1, setting)
		}
	}
	text := FormatTable4(rows)
	if !strings.Contains(text, "NoNeighbors") {
		t.Error("FormatTable4 missing settings")
	}
}

func TestFigure2Shapes(t *testing.T) {
	s := testSuite(t, 0.1, "Restaurant", "YAGO-IMDb")
	points, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	counts := map[string]int{}
	for _, p := range points {
		if p.ValueSim < 0 || p.ValueSim > 1 || p.NeighborSim < 0 || p.NeighborSim > 1 {
			t.Fatalf("similarities out of range: %+v", p)
		}
		means[p.Dataset] += p.ValueSim
		counts[p.Dataset]++
	}
	for ds := range means {
		means[ds] /= float64(counts[ds])
	}
	// Figure 2 shape: Restaurant matches are strongly similar; YAGO-IMDb
	// matches have much lower normalized value similarity.
	if means["Restaurant"] <= means["YAGO-IMDb"] {
		t.Errorf("value-sim means: Restaurant %v vs YAGO %v, want Restaurant higher",
			means["Restaurant"], means["YAGO-IMDb"])
	}
	if !strings.Contains(FormatFigure2(points), "meanValue") {
		t.Error("FormatFigure2 header")
	}
	csv := Figure2CSV(points)
	if !strings.HasPrefix(csv, "dataset,valueSim") || strings.Count(csv, "\n") != len(points)+1 {
		t.Error("Figure2CSV malformed")
	}
}

func TestFigure5SweepsComplete(t *testing.T) {
	s := testSuite(t, 0.05, "Restaurant")
	points, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, vs := range Figure5Sweeps {
		want += len(vs)
	}
	if len(points) != want {
		t.Fatalf("got %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.F1 < 0 || p.F1 > 1 {
			t.Errorf("F1 out of range: %+v", p)
		}
	}
	if !strings.Contains(FormatFigure5(points), "theta") {
		t.Error("FormatFigure5 output")
	}
}

// TestPresetAccuracy pins the pipeline's effectiveness on every preset at
// scale 0.25, at one worker and at all cores: the match count exactly, and
// F1 to at most 0.05 below the recorded value. The recorded values were
// measured at scale 0.25 with the default configuration: Restaurant 28
// matches at F1 0.880, Rexa-DBLP 298 at 0.993, BBCmusic-DBpedia 613 at 0.968
// and YAGO-IMDb 1715 at 0.969.
func TestPresetAccuracy(t *testing.T) {
	recorded := []struct {
		dataset string
		matches int
		f1      float64
	}{
		{"Restaurant", 28, 0.880},
		{"Rexa-DBLP", 298, 0.993},
		{"BBCmusic-DBpedia", 613, 0.968},
		{"YAGO-IMDb", 1715, 0.969},
	}
	s := testSuite(t, 0.25)
	for _, want := range recorded {
		d, err := s.Dataset(want.dataset)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(out.Matches); got != want.matches {
				t.Errorf("%s workers=%d: %d matches, want %d", want.dataset, workers, got, want.matches)
			}
			if f1 := eval.Evaluate(out.Pairs(), d.GT).F1; f1 < want.f1-0.05 {
				t.Errorf("%s workers=%d: F1 %.3f more than 0.05 below the recorded %.3f",
					want.dataset, workers, f1, want.f1)
			}
		}
	}
}

func TestFigure6SpeedupAndDeterminism(t *testing.T) {
	s := testSuite(t, 0.2, "YAGO-IMDb")
	points, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Skip("single-core machine")
	}
	f1 := points[0].F1
	for _, p := range points {
		if p.F1 != f1 {
			t.Errorf("F1 changed with worker count: %v vs %v", p.F1, f1)
		}
		if p.Speedup <= 0 {
			t.Errorf("non-positive speedup: %+v", p)
		}
	}
	if !strings.Contains(FormatFigure6(points), "speedup") {
		t.Error("FormatFigure6 output")
	}
}
