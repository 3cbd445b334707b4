package baselines

import (
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// smallDataset generates a quick benchmark for baseline smoke tests.
func smallDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 1.0))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func purgedTokenBlocks(t *testing.T, d *datagen.Dataset) *blocking.Collection {
	t.Helper()
	cap := int64(float64(d.K1.Len()) * float64(d.K2.Len()) * 0.0005)
	ix, _, err := blocking.NewPurgedTokenIndexCtx(t.Context(), seq, d.K1, d.K2, cap)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Collection()
}

func TestCandidatePairs(t *testing.T) {
	c := &blocking.Collection{Blocks: []blocking.Block{
		{Key: "a", E1: []kb.EntityID{1, 2}, E2: []kb.EntityID{10}},
		{Key: "b", E1: []kb.EntityID{1}, E2: []kb.EntityID{10, 11}},
	}}
	got := CandidatePairs(0, c)
	// Distinct pairs: (1,10), (2,10), (1,11).
	if len(got) != 3 {
		t.Fatalf("pairs = %v, want 3 distinct", got)
	}
	if got[0] != (eval.Pair{E1: 1, E2: 10}) {
		t.Errorf("pairs not sorted: %v", got)
	}
	// Limit respected.
	if lim := CandidatePairs(2, c); len(lim) != 2 {
		t.Errorf("limit ignored: %v", lim)
	}
	// Nil collections tolerated.
	if got := CandidatePairs(0, nil, c); len(got) != 3 {
		t.Errorf("nil collection changed result: %v", got)
	}
}

func TestBSLOnRestaurant(t *testing.T) {
	if testing.Short() {
		t.Skip("BSL sweep is slow")
	}
	d := smallDataset(t)
	tb := purgedTokenBlocks(t, d)
	cands := CandidatePairs(0, tb)
	res := BSL(parallel.New(0), d.K1, d.K2, cands, d.GT)
	if res.Explored != 420 {
		t.Fatalf("explored %d configurations, want 420", res.Explored)
	}
	// Restaurant is the easy, strongly similar dataset: the fine-tuned
	// baseline must do very well (paper: 100 F1).
	if res.Best.Metrics.F1 < 0.9 {
		t.Errorf("BSL best on Restaurant = %v (%v), want ≥ 0.9", res.Best.Metrics, res.Best.Config)
	}
}

func TestBSLThresholdMonotonicity(t *testing.T) {
	d := smallDataset(t)
	tb := purgedTokenBlocks(t, d)
	cands := CandidatePairs(0, tb)
	res := BSL(parallel.New(0), d.K1, d.K2, cands, d.GT)
	// For a fixed configuration, recall must be non-increasing in the
	// threshold (UMC keeps a prefix).
	byCfg := map[string][]BSLOutcome{}
	for _, o := range res.Sweep {
		key := o.Config.String()[:len(o.Config.String())-7] // strip "/t=x.xx"
		byCfg[key] = append(byCfg[key], o)
	}
	for key, outs := range byCfg {
		for i := 1; i < len(outs); i++ {
			if outs[i].Config.Threshold < outs[i-1].Config.Threshold {
				t.Fatalf("%s: thresholds out of order", key)
			}
			if outs[i].Metrics.Recall > outs[i-1].Metrics.Recall+1e-12 {
				t.Fatalf("%s: recall increased with threshold", key)
			}
		}
	}
}

func TestPARISOnFigure1(t *testing.T) {
	w, d := testkb.Figure1()
	got := PARIS(w, d, DefaultPARISConfig())
	// The chefs share the exact literal "J. Lake" → seed match.
	found := false
	for _, p := range got {
		if w.Entity(p.E1).URI == "w:JohnLakeA" && d.Entity(p.E2).URI == "d:JonnyLake" {
			found = true
		}
	}
	if !found {
		t.Errorf("PARIS missed the exact-literal chef match: %v", got)
	}
}

func TestPARISOneToOne(t *testing.T) {
	d := smallDataset(t)
	got := PARIS(d.K1, d.K2, DefaultPARISConfig())
	assertOneToOne(t, got)
	m := eval.Evaluate(got, d.GT)
	// Restaurant has low raw-value noise → PARIS performs well (paper: 91 F1).
	if m.F1 < 0.6 {
		t.Errorf("PARIS on Restaurant F1 = %v, want ≥ 0.6", m.F1)
	}
}

func TestPARISCollapsesUnderRawNoise(t *testing.T) {
	p := datagen.Scale(datagen.BBCMusicDBpedia(), 0.1)
	d, err := datagen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	got := PARIS(d.K1, d.K2, DefaultPARISConfig())
	m := eval.Evaluate(got, d.GT)
	// The paper's Table 3: PARIS recall 0.29% on BBCmusic-DBpedia. With 95%
	// raw-value noise the exact-literal seeds vanish.
	if m.Recall > 0.3 {
		t.Errorf("PARIS recall under raw noise = %v, want near zero", m.Recall)
	}
}

func TestSiGMaOnRestaurant(t *testing.T) {
	d := smallDataset(t)
	tb := purgedTokenBlocks(t, d)
	got := SiGMa(seq, d.K1, d.K2, tb, DefaultSiGMaConfig())
	assertOneToOne(t, got)
	m := eval.Evaluate(got, d.GT)
	if m.F1 < 0.8 {
		t.Errorf("SiGMa on Restaurant F1 = %v (%v), want ≥ 0.8", m.F1, m)
	}
}

func TestLINDAStyleRuns(t *testing.T) {
	d := smallDataset(t)
	tb := purgedTokenBlocks(t, d)
	got := SiGMa(seq, d.K1, d.K2, tb, LINDAStyleConfig())
	assertOneToOne(t, got)
	m := eval.Evaluate(got, d.GT)
	if m.F1 <= 0 {
		t.Error("LINDA-style found nothing")
	}
}

func TestRiMOMOnRestaurant(t *testing.T) {
	d := smallDataset(t)
	got := RiMOMIM(seq, d.K1, d.K2, DefaultRiMOMConfig())
	assertOneToOne(t, got)
	m := eval.Evaluate(got, d.GT)
	// RiMOM-IM's fixed global threshold cannot adapt to Restaurant's short
	// descriptions, where coincidental name/year tokens push non-matches
	// over it (the deviation is recorded in EXPERIMENTS.md); the paper's
	// own RiMOM row is the weakest of the compared systems too. Require a
	// floor that catches regressions without overstating the baseline.
	if m.F1 < 0.3 {
		t.Errorf("RiMOM-IM on Restaurant F1 = %v, want ≥ 0.3", m.F1)
	}
	if m.Recall < 0.8 {
		t.Errorf("RiMOM-IM recall = %v, want ≥ 0.8", m.Recall)
	}
}

func assertOneToOne(t *testing.T, pairs []eval.Pair) {
	t.Helper()
	seen1 := map[kb.EntityID]bool{}
	seen2 := map[kb.EntityID]bool{}
	for _, p := range pairs {
		if seen1[p.E1] || seen2[p.E2] {
			t.Fatalf("mapping not one-to-one at %v", p)
		}
		seen1[p.E1] = true
		seen2[p.E2] = true
	}
}

func TestEditDistanceAtMost(t *testing.T) {
	cases := []struct {
		a, b string
		k    int
		want bool
	}{
		{"rel", "rel", 0, true},
		{"rel", "rels", 0, false},
		{"rel", "rels", 1, true},
		{"v0:r0", "v0:r1", 1, true},
		{"v0:r0", "v1:r1", 1, false},
		{"abc", "xyz", 2, false},
		{"", "", 0, true},
		{"", "ab", 1, false},
	}
	for _, c := range cases {
		if got := editDistanceAtMost(c.a, c.b, c.k); got != c.want {
			t.Errorf("editDistanceAtMost(%q,%q,%d) = %v, want %v", c.a, c.b, c.k, got, c.want)
		}
	}
}

func TestTopTerms(t *testing.T) {
	v := vecFor(map[string]float64{"a": 3, "b": 1, "c": 2})
	got := topTerms(v, 2)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("topTerms = %v, want [a c]", got)
	}
}

func TestNameSeedsFigure1(t *testing.T) {
	w, d := testkb.Figure1()
	seeds := nameSeeds(seq, w, d, 2)
	found := false
	for _, p := range seeds {
		if w.Entity(p.E1).URI == "w:JohnLakeA" {
			found = true
		}
	}
	if !found {
		t.Errorf("nameSeeds missed the chefs: %v", seeds)
	}
}
