package matching

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"minoaner/internal/eval"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

func figure1Run(t *testing.T, e *parallel.Engine, cfg Config) (*kb.KB, *kb.KB, *Result) {
	t.Helper()
	w, d := testkb.Figure1()
	return w, d, run(t, e, buildGraph(t, e, graph.InputFor(e, w, d, 2, 5, 2)), w, d, cfg)
}

func buildGraph(t *testing.T, e *parallel.Engine, in graph.Input) *graph.Graph {
	t.Helper()
	g, _, err := graph.BuildTimedCtx(context.Background(), e, in)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func run(t *testing.T, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config) *Result {
	t.Helper()
	res, err := RunCtx(context.Background(), e, g, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// emptyRows is a set of n rows without elements.
func emptyRows[T any](n int) graph.Rows[T] { return graph.Rows[T]{Off: make([]int64, n+1)} }

func pairURIs(w, d *kb.KB, res *Result) map[[2]string]Rule {
	out := map[[2]string]Rule{}
	for _, m := range res.Matches {
		out[[2]string{w.Entity(m.Pair.E1).URI, d.Entity(m.Pair.E2).URI}] = m.Rule
	}
	return out
}

func TestFullPipelineFindsFigure1Matches(t *testing.T) {
	w, d, res := figure1Run(t, seq, DefaultConfig())
	got := pairURIs(w, d, res)
	// The chefs share a unique name → R1.
	if r, ok := got[[2]string{"w:JohnLakeA", "d:JonnyLake"}]; !ok || r != RuleName {
		t.Errorf("chefs: got %v (rule %v), want R1 match; all: %v", ok, r, got)
	}
	// The restaurants share "The Fat Duck" tokens (strong value evidence) or
	// are found via neighbors.
	if _, ok := got[[2]string{"w:Restaurant1", "d:Restaurant2"}]; !ok {
		t.Errorf("restaurants not matched; matches: %v", got)
	}
	// Bray–Berkshire (nearly similar, shared infrequent tokens).
	if _, ok := got[[2]string{"w:Bray", "d:Berkshire"}]; !ok {
		t.Logf("note: Bray–Berkshire not matched (acceptable, nearly-similar): %v", got)
	}
}

func TestR1Alone(t *testing.T) {
	cfg := Config{Theta: 0.6, EnableR1: true, UseNeighbors: true}
	w, d, res := figure1Run(t, seq, cfg)
	got := pairURIs(w, d, res)
	if len(got) != 1 {
		t.Fatalf("R1 alone found %d matches, want exactly the chefs: %v", len(got), got)
	}
	if _, ok := got[[2]string{"w:JohnLakeA", "d:JonnyLake"}]; !ok {
		t.Errorf("R1 alone must find the chefs: %v", got)
	}
	for _, m := range res.Matches {
		if m.Rule != RuleName {
			t.Errorf("R1-only run produced rule %v", m.Rule)
		}
	}
}

func TestR2Alone(t *testing.T) {
	cfg := Config{Theta: 0.6, EnableR2: true, UseNeighbors: true}
	w, d, res := figure1Run(t, seq, cfg)
	got := pairURIs(w, d, res)
	// Restaurants share the infrequent tokens "the fat duck" → β ≥ 1 → R2.
	if r, ok := got[[2]string{"w:Restaurant1", "d:Restaurant2"}]; !ok || r != RuleValue {
		t.Errorf("R2 alone: restaurants = (%v, %v), want R2 match; all: %v", ok, r, got)
	}
}

func TestR3AloneMatchesEverything(t *testing.T) {
	cfg := Config{Theta: 0.6, EnableR3: true, UseNeighbors: true}
	_, _, res := figure1Run(t, seq, cfg)
	// R3 matches every node to its best candidate — high recall, lower
	// precision. All four Wikidata entities have some candidate.
	if len(res.Matches) < 3 {
		t.Errorf("R3 alone found %d matches, want ≥ 3", len(res.Matches))
	}
	for _, m := range res.Matches {
		if m.Rule != RuleRank {
			t.Errorf("rule = %v, want R3", m.Rule)
		}
	}
}

func TestR4FiltersNonReciprocal(t *testing.T) {
	// Build a graph by hand: E1 node 0 has a β-edge to E2 node 0, but E2
	// node 0's only retained edge points elsewhere → not reciprocal.
	g := &graph.Graph{
		Alpha1: emptyRows[kb.EntityID](2),
		Alpha2: emptyRows[kb.EntityID](2),
		Beta1:  graph.Rows[graph.Edge]{Off: []int64{0, 1, 1}, Flat: []graph.Edge{graph.NewEdge(0, 2.0)}},
		Beta2:  graph.Rows[graph.Edge]{Off: []int64{0, 1, 1}, Flat: []graph.Edge{graph.NewEdge(1, 2.0)}},
		Gamma1: emptyRows[graph.Edge](2),
		Gamma2: emptyRows[graph.Edge](2),
	}
	k1 := twoEntityKB("A")
	k2 := twoEntityKB("B")
	with := run(t, seq, g, k1, k2, Config{Theta: 0.6, EnableR2: true, EnableR4: true, UseNeighbors: true})
	if len(with.Matches) != 0 || with.RemovedByR4 != 1 {
		t.Errorf("R4 should remove the non-reciprocal match: %+v", with)
	}
	without := run(t, seq, g, k1, k2, Config{Theta: 0.6, EnableR2: true, UseNeighbors: true})
	if len(without.Matches) != 1 {
		t.Errorf("without R4 the match should survive: %+v", without)
	}
}

func twoEntityKB(name string) *kb.KB {
	b := kb.NewBuilder(name)
	e0 := b.AddEntity(name + "0")
	e1 := b.AddEntity(name + "1")
	b.AddLiteral(e0, "label", "x")
	b.AddLiteral(e1, "label", "y")
	return b.Build()
}

func TestOneToOneInvariant(t *testing.T) {
	_, _, res := figure1Run(t, seq, DefaultConfig())
	seen1 := map[kb.EntityID]bool{}
	seen2 := map[kb.EntityID]bool{}
	for _, m := range res.Matches {
		if seen1[m.Pair.E1] || seen2[m.Pair.E2] {
			t.Fatalf("entity matched twice: %+v", m)
		}
		seen1[m.Pair.E1] = true
		seen2[m.Pair.E2] = true
	}
}

func TestMatchingParallelDeterminism(t *testing.T) {
	_, _, ref := figure1Run(t, seq, DefaultConfig())
	for _, workers := range []int{2, 4, 8} {
		_, _, got := figure1Run(t, parallel.New(workers), DefaultConfig())
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("matching differs with %d workers", workers)
		}
	}
}

func TestNoNeighborsAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseNeighbors = false
	_, _, res := figure1Run(t, seq, cfg)
	// Still produces matches from names and values.
	if len(res.Matches) == 0 {
		t.Error("no-neighbors run produced nothing")
	}
}

func TestR2ScansSmallerKB(t *testing.T) {
	// k2 smaller than k1: R2 must iterate E2 side (Beta2).
	b1 := kb.NewBuilder("big")
	for _, u := range []string{"a", "b", "c"} {
		id := b1.AddEntity(u)
		b1.AddLiteral(id, "label", "token-"+u)
	}
	k1 := b1.Build()
	b2 := kb.NewBuilder("small")
	x := b2.AddEntity("x")
	b2.AddLiteral(x, "label", "token-a")
	k2 := b2.Build()
	g := buildGraph(t, seq, graph.InputFor(seq, k1, k2, 1, 5, 2))
	res := run(t, seq, g, k1, k2, Config{Theta: 0.6, EnableR2: true, UseNeighbors: true})
	if len(res.Matches) != 1 {
		t.Fatalf("matches = %v, want a–x", res.Matches)
	}
	if k1.Entity(res.Matches[0].Pair.E1).URI != "a" {
		t.Errorf("matched %v, want a–x", res.Matches[0])
	}
}

func TestRuleString(t *testing.T) {
	if RuleName.String() != "R1" || RuleValue.String() != "R2" ||
		RuleRank.String() != "R3" || RuleNone.String() != "none" {
		t.Error("Rule.String labels wrong")
	}
}

func TestResultPairs(t *testing.T) {
	r := &Result{Matches: []Match{{Pair: eval.Pair{E1: 1, E2: 2}, Rule: RuleName}}}
	if got := r.Pairs(); len(got) != 1 || got[0] != (eval.Pair{E1: 1, E2: 2}) {
		t.Errorf("Pairs = %v", got)
	}
}

func TestAggregateRanks(t *testing.T) {
	m := &matcher{cfg: Config{Theta: 0.6, UseNeighbors: true}}
	sb := newAggBoard()
	val := []graph.Edge{graph.NewEdge(10, 5), graph.NewEdge(11, 3)}
	ngb := []graph.Edge{graph.NewEdge(11, 9), graph.NewEdge(10, 1)}
	// Scores: 10 → .6·(2/2) + .4·(1/2) = 0.8; 11 → .6·(1/2) + .4·(2/2) = 0.7.
	to, score := m.aggregate(sb, val, ngb)
	if to != 10 {
		t.Fatalf("aggregate picked %d (score %v), want 10", to, score)
	}
	if score != 0.8 {
		t.Errorf("score = %v, want 0.8", score)
	}
	// θ < 0.5 promotes neighbor evidence → 11 wins.
	m.cfg.Theta = 0.3
	to, _ = m.aggregate(sb, val, ngb)
	if to != 11 {
		t.Errorf("θ=0.3 picked %d, want 11", to)
	}
	// Empty lists → NoEntity.
	if to, _ := m.aggregate(sb, nil, nil); to != kb.NoEntity {
		t.Error("aggregate(nil,nil) must return NoEntity")
	}
	// Neighbors disabled → only value list counts.
	m.cfg.UseNeighbors = false
	to, _ = m.aggregate(sb, val, ngb)
	if to != 10 {
		t.Errorf("no-neighbors aggregate picked %d, want 10", to)
	}
}

// The scoreboard aggregate must reproduce the retained map-based reference
// — same pick, same score — on randomized candidate lists with overlapping
// value/neighbor candidates and tied ranks, across reuse of one board.
func TestAggregateScoreboardMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	m := &matcher{cfg: Config{Theta: 0.6, UseNeighbors: true}}
	sb := newAggBoard()
	for trial := 0; trial < 500; trial++ {
		var val, ngb []graph.Edge
		seen := map[kb.EntityID]bool{}
		for c := r.Intn(6); c > 0; c-- {
			to := kb.EntityID(r.Intn(50))
			if seen[to] {
				continue
			}
			seen[to] = true
			val = append(val, graph.NewEdge(to, float64(c)))
		}
		seen = map[kb.EntityID]bool{}
		for c := r.Intn(6); c > 0; c-- {
			to := kb.EntityID(r.Intn(50))
			if seen[to] {
				continue
			}
			seen[to] = true
			ngb = append(ngb, graph.NewEdge(to, float64(c)))
		}
		if trial%3 == 0 {
			m.cfg.UseNeighbors = false
		} else {
			m.cfg.UseNeighbors = true
		}
		wantTo, wantScore := m.aggregateMap(val, ngb)
		gotTo, gotScore := m.aggregate(sb, val, ngb)
		if gotTo != wantTo || gotScore != wantScore {
			t.Fatalf("trial %d: aggregate = (%d, %v), reference = (%d, %v)",
				trial, gotTo, gotScore, wantTo, wantScore)
		}
		if len(sb.cands) != 0 {
			t.Fatalf("trial %d: aggregate left the board dirty (%d touched)", trial, len(sb.cands))
		}
	}
}

// demanded serves the rows of a materialized Gamma1 the way a streaming
// producer does: the rows the demand flags, and empty rows for the rest.
func demanded(g *graph.Graph) GammaFor {
	return func(_ context.Context, need []bool) (graph.Rows[graph.Edge], error) {
		rows := graph.Rows[graph.Edge]{Off: make([]int64, len(need)+1)}
		for i, ok := range need {
			if ok {
				rows.Flat = append(rows.Flat, g.Gamma1.Row(i)...)
			}
			rows.Off[i+1] = int64(len(rows.Flat))
		}
		return rows, nil
	}
}

// Matching over only the demanded γ rows must equal matching over all of
// them. R2 walks E2 here (E1 is the larger KB), so its match (0, 0) has no
// α or β1 edge from E1: R4 finds the E1→E2 edge in γ only, in the row of an
// entity R3 never reads, and the demand must ask for that row.
func TestRowDemandCoversR4(t *testing.T) {
	g := &graph.Graph{
		Alpha1: emptyRows[kb.EntityID](2),
		Alpha2: emptyRows[kb.EntityID](1),
		Beta1:  emptyRows[graph.Edge](2),
		Beta2:  graph.Rows[graph.Edge]{Off: []int64{0, 1}, Flat: []graph.Edge{graph.NewEdge(0, 2)}},
		Gamma1: graph.Rows[graph.Edge]{Off: []int64{0, 1, 1}, Flat: []graph.Edge{graph.NewEdge(0, 1)}},
		Gamma2: emptyRows[graph.Edge](1),
	}
	b := kb.NewBuilder("B")
	b.AddLiteral(b.AddEntity("B0"), "label", "x")
	k1, k2 := twoEntityKB("A"), b.Build()
	for name, cfg := range map[string]Config{
		"R2+R4":    {Theta: 0.6, EnableR2: true, EnableR4: true, UseNeighbors: true},
		"R2+R3+R4": {Theta: 0.6, EnableR2: true, EnableR3: true, EnableR4: true, UseNeighbors: true},
	} {
		want := run(t, seq, g, k1, k2, cfg)
		if len(want.Matches) != 1 || want.RemovedByR4 != 0 {
			t.Fatalf("%s: reference %+v, want the R2 match kept by its γ edge", name, want)
		}
		got, err := RunOnDemandCtx(context.Background(), seq, g, k1, k2, cfg, demanded(g))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: over the demanded rows %+v, over all rows %+v", name, got, want)
		}
	}
	// The same on the Figure 1 graph, for every rule ablation and worker
	// count.
	w, d := testkb.Figure1()
	fig := buildGraph(t, seq, graph.InputFor(seq, w, d, 2, 5, 2))
	for _, cfg := range []Config{
		DefaultConfig(),
		{Theta: 0.6, EnableR2: true, EnableR3: true, EnableR4: true, UseNeighbors: true},
		{Theta: 0.6, EnableR1: true, EnableR3: true, EnableR4: true, UseNeighbors: true},
		{Theta: 0.6, EnableR1: true, EnableR2: true, EnableR4: true, UseNeighbors: true},
		{Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, UseNeighbors: true},
		{Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, EnableR4: true},
	} {
		want := run(t, seq, fig, w, d, cfg)
		for _, p := range []int{1, 3} {
			got, err := RunOnDemandCtx(context.Background(), parallel.New(p), fig, w, d, cfg, demanded(fig))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v workers=%d: over the demanded rows %+v, over all rows %+v", cfg, p, got, want)
			}
		}
	}
}
