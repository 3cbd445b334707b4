package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// buildFigure1Graph assembles the full Algorithm 1 input for the paper's
// Figure 1 fixture with parameters (k=2 names, K, N=2).
func buildFigure1Graph(t *testing.T, e *parallel.Engine, k int) (*kb.KB, *kb.KB, *Graph) {
	t.Helper()
	w, d := testkb.Figure1()
	return w, d, mustBuild(t, e, InputFor(e, w, d, 2, k, 2))
}

// mustBuild builds the whole graph, E1-side γ rows included.
func mustBuild(t testing.TB, e *parallel.Engine, in Input) *Graph {
	t.Helper()
	g, _, err := BuildTimedCtx(context.Background(), e, in)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAlphaEdgesFromUniqueNames(t *testing.T) {
	w, d, g := buildFigure1Graph(t, seq, 5)
	chef1 := w.Lookup("w:JohnLakeA")
	chef2 := d.Lookup("d:JonnyLake")
	// Example 3.4: the chefs share the unique name "J. Lake" → α = 1.
	if row := g.Alpha1.Row(int(chef1)); !slices.Contains(row, chef2) {
		t.Errorf("Alpha1[chef1] = %v, want to contain chef2=%d", row, chef2)
	}
	if row := g.Alpha2.Row(int(chef2)); !slices.Contains(row, chef1) {
		t.Errorf("Alpha2[chef2] = %v, want to contain chef1=%d", row, chef1)
	}
}

func TestBetaMatchesDirectValueSim(t *testing.T) {
	// With K large enough that nothing is pruned, the retained β weight of
	// every pair must equal the reference Def. 2.1 computation.
	w, d, g := buildFigure1Graph(t, seq, 100)
	ef1, err := stats.BuildEFCtx(t.Context(), seq, w)
	if err != nil {
		t.Fatal(err)
	}
	ef2, err := stats.BuildEFCtx(t.Context(), seq, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Len(); i++ {
		for j := 0; j < d.Len(); j++ {
			want := stats.ValueSim(w.Entity(kb.EntityID(i)), d.Entity(kb.EntityID(j)), ef1, ef2)
			got := g.betaWeight(kb.EntityID(i), kb.EntityID(j))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("β(%d,%d) = %v, want valueSim %v", i, j, got, want)
			}
		}
	}
}

func TestBetaSortedAndBounded(t *testing.T) {
	_, _, g := buildFigure1Graph(t, seq, 2)
	for i, es := range slicesOf(g.Beta1) {
		if len(es) > 2 {
			t.Fatalf("Beta1[%d] has %d edges, K=2", i, len(es))
		}
		for x := 1; x < len(es); x++ {
			if es[x].Weight() > es[x-1].Weight() {
				t.Fatalf("Beta1[%d] not sorted desc", i)
			}
		}
		for _, edge := range es {
			if edge.Weight() <= 0 {
				t.Fatalf("Beta1[%d] kept trivial edge", i)
			}
		}
	}
}

func TestGammaPropagation(t *testing.T) {
	w, d, g := buildFigure1Graph(t, seq, 5)
	r1 := w.Lookup("w:Restaurant1")
	r2 := d.Lookup("d:Restaurant2")
	// Example 3.4: Restaurant1–Restaurant2 get a non-zero γ because their
	// top neighbors (chefs; Bray/Berkshire) have non-zero β edges.
	var gammaR1R2 float64
	for _, edge := range g.Gamma1.Row(int(r1)) {
		if edge.To == r2 {
			gammaR1R2 = edge.Weight()
		}
	}
	if gammaR1R2 <= 0 {
		t.Fatalf("γ(Restaurant1, Restaurant2) = %v, want > 0 (Gamma1: %v)", gammaR1R2, g.Gamma1.Row(int(r1)))
	}
	// γ must equal the sum of β over top-neighbor pairs (Def. 2.5 via
	// retained edges).
	var want float64
	in := InputFor(seq, w, d, 2, 5, 2)
	adj := map[[2]kb.EntityID]float64{}
	for x, es := range slicesOf(g.Beta1) {
		for _, e := range es {
			adj[[2]kb.EntityID{kb.EntityID(x), e.To}] = e.Weight()
		}
	}
	for y, es := range slicesOf(g.Beta2) {
		for _, e := range es {
			adj[[2]kb.EntityID{e.To, kb.EntityID(y)}] = e.Weight()
		}
	}
	for _, na := range in.Top1[r1] {
		for _, nb := range in.Top2[r2] {
			want += adj[[2]kb.EntityID{na, nb}]
		}
	}
	if math.Abs(gammaR1R2-want) > 1e-9 {
		t.Errorf("γ(R1,R2) = %v, want %v", gammaR1R2, want)
	}
}

func TestGammaSymmetryOfPairWeight(t *testing.T) {
	// γ is a pair weight: if (a→b) and (b→a) both survive pruning, their
	// weights must be equal.
	w, d, g := buildFigure1Graph(t, seq, 100)
	_ = w
	_ = d
	for a, es := range slicesOf(g.Gamma1) {
		for _, e := range es {
			for _, back := range g.Gamma2.Row(int(e.To)) {
				if int(back.To) == a && math.Abs(back.Weight()-e.Weight()) > 1e-9 {
					t.Fatalf("γ asymmetric: %v vs %v", e.Weight(), back.Weight())
				}
			}
		}
	}
}

func TestHasDirectedEdge(t *testing.T) {
	w, d, g := buildFigure1Graph(t, seq, 5)
	chef1 := w.Lookup("w:JohnLakeA")
	chef2 := d.Lookup("d:JonnyLake")
	// The E1→E2 edge under α or β evidence; R4 adds γ₁ from the rows it
	// builds.
	hasEdge1NoGamma := func(e1, e2 kb.EntityID) bool {
		return slices.Contains(g.Alpha1.Row(int(e1)), e2) || EdgeListContains(g.Beta1.Row(int(e1)), e2)
	}
	if has, err := g.HasEdge2(chef2, chef1, w.Len()); !hasEdge1NoGamma(chef1, chef2) || !has || err != nil {
		t.Errorf("chef pair must be reciprocally connected (E2→E1: %v, %v)", has, err)
	}
	uk := w.Lookup("w:UK")
	// UK shares tokens with England ("england"? no: UK's tokens are
	// "united kingdom"); it should have no edge to the chef.
	if hasEdge1NoGamma(uk, chef2) || EdgeListContains(g.Gamma1.Row(int(uk)), chef2) {
		t.Error("UK → chef edge should not exist")
	}
	if has, err := g.HasEdge2(chef2, uk, w.Len()); has || err != nil {
		t.Errorf("chef → UK edge = (%v, %v), want none", has, err)
	}
	// A target outside E1 in a row the scan reads is refused, not skipped.
	for _, rows := range []Rows[Edge]{g.Beta2, g.Gamma2} {
		if row := rows.Row(int(chef2)); len(row) > 0 {
			saved := row[0]
			rows.Flat[rows.Off[chef2]] = NewEdge(kb.EntityID(w.Len()), saved.Weight())
			has, err := g.HasEdge2(chef2, uk, w.Len())
			rows.Flat[rows.Off[chef2]] = saved
			if has || !errors.Is(err, ErrOutOfRange) {
				t.Errorf("damaged row: HasEdge2 = (%v, %v), want ErrOutOfRange", has, err)
			}
		}
	}
}

func TestGraphParallelDeterminism(t *testing.T) {
	_, _, ref := buildFigure1Graph(t, seq, 3)
	for _, workers := range []int{2, 4, 8} {
		_, _, got := buildFigure1Graph(t, parallel.New(workers), 3)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("graph differs with %d workers", workers)
		}
	}
}

func TestEdgesBound(t *testing.T) {
	w, d, g := buildFigure1Graph(t, seq, 3)
	// |E| ≤ 2·(2K + maxNames)·(|E1|+|E2|) — generous upper bound; the point
	// is linear scaling in input size (§4 complexity claim).
	bound := 2 * (2*3 + 2) * (w.Len() + d.Len())
	if g.Edges() > bound {
		t.Errorf("Edges = %d, exceeds linear bound %d", g.Edges(), bound)
	}
}

func TestTopK(t *testing.T) {
	acc := map[kb.EntityID]float64{1: 0.5, 2: 2.0, 3: 1.0, 4: 0, 5: -1}
	got := topK(acc, 2)
	want := []Edge{NewEdge(2, 2.0), NewEdge(3, 1.0)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topK = %v, want %v", got, want)
	}
	if topK(nil, 3) != nil {
		t.Error("topK(nil) should be nil")
	}
	if topK(acc, 0) != nil {
		t.Error("topK(_, 0) should be nil")
	}
	// Ties broken by ID.
	tie := map[kb.EntityID]float64{9: 1, 3: 1, 7: 1}
	gotTie := topK(tie, 2)
	if gotTie[0].To != 3 || gotTie[1].To != 7 {
		t.Errorf("tie-break = %v, want IDs 3,7", gotTie)
	}
}

func TestTopKProperty(t *testing.T) {
	f := func(weights []float64, k uint8) bool {
		acc := map[kb.EntityID]float64{}
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			acc[kb.EntityID(i)] = math.Abs(w)
		}
		kk := int(k%10) + 1
		es := topK(acc, kk)
		if len(es) > kk {
			return false
		}
		for i := 1; i < len(es); i++ {
			if es[i].Weight() > es[i-1].Weight() {
				return false
			}
		}
		// Every returned weight must be >= every excluded positive weight.
		if len(es) == kk {
			minKept := es[len(es)-1].Weight()
			excluded := 0
			for _, w := range acc {
				if w > minKept {
					excluded++
				}
			}
			if excluded > kk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMergeAdjacency(t *testing.T) {
	beta1 := [][]Edge{{NewEdge(0, 1.0), NewEdge(1, 0.5)}}
	beta2 := [][]Edge{{NewEdge(0, 1.0)}, {}} // E2 node 0 retains edge to E1 node 0
	adj := slicesOf(MergeAdjacency(seq, RowsOf(beta1), RowsOf(beta2)))
	if len(adj[0]) != 2 {
		t.Fatalf("adj[0] = %v, want deduped 2 edges", adj[0])
	}
	if adj[0][0].To != 0 || adj[0][1].To != 1 {
		t.Errorf("adj[0] = %v, want sorted by ID", adj[0])
	}
}

// Duplicate edges (same To) must dedup deterministically — the higher weight
// wins no matter which direction contributed it first. (In the pipeline both
// weights coincide because valueSim is symmetric; the tie rule makes the
// merge order-insensitive by construction, not by accident.)
func TestMergeAdjacencyTieBreaking(t *testing.T) {
	ownFirst := slicesOf(MergeAdjacency(seq,
		RowsOf([][]Edge{{NewEdge(3, 0.25)}}),
		RowsOf([][]Edge{nil, nil, nil, {NewEdge(0, 0.75)}})))
	reverseFirst := slicesOf(MergeAdjacency(seq,
		RowsOf([][]Edge{{NewEdge(3, 0.75)}}),
		RowsOf([][]Edge{nil, nil, nil, {NewEdge(0, 0.25)}})))
	for name, adj := range map[string][][]Edge{"own-low": ownFirst, "own-high": reverseFirst} {
		if len(adj[0]) != 1 {
			t.Fatalf("%s: adj[0] = %v, want 1 deduped edge", name, adj[0])
		}
		if adj[0][0] != NewEdge(3, 0.75) {
			t.Errorf("%s: kept %v, want the max-weight duplicate {3 0.75}", name, adj[0][0])
		}
	}
	// Multiple duplicates interleaved with distinct neighbors.
	adj := slicesOf(MergeAdjacency(seq,
		RowsOf([][]Edge{{NewEdge(1, 0.5), NewEdge(2, 0.9)}}),
		RowsOf([][]Edge{nil, {NewEdge(0, 0.5)}, {NewEdge(0, 0.9)}, {NewEdge(0, 0.1)}})))
	want := []Edge{NewEdge(1, 0.5), NewEdge(2, 0.9), NewEdge(3, 0.1)}
	if !reflect.DeepEqual(adj[0], want) {
		t.Errorf("adj[0] = %v, want %v", adj[0], want)
	}
}

// topK must order equal weights by ascending entity ID at every position,
// including across the truncation boundary.
func TestTopKTieBreaking(t *testing.T) {
	acc := map[kb.EntityID]float64{8: 0.5, 2: 0.5, 5: 0.5, 1: 0.25}
	got := topK(acc, 3)
	want := []Edge{NewEdge(2, 0.5), NewEdge(5, 0.5), NewEdge(8, 0.5)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("topK ties = %v, want %v (ID 1 with lower weight truncated)", got, want)
	}
}

// uniqueNameBlocks builds a pathological name-block collection: one E1
// entity shares nBlocks distinct unique names with the same E2 entity, so
// its alpha list is appended nBlocks times — the workload that was quadratic
// under the appendUnique idiom.
func uniqueNameBlocks(nBlocks int) *blocking.Collection {
	c := &blocking.Collection{Blocks: make([]blocking.Block, nBlocks)}
	for i := range c.Blocks {
		c.Blocks[i] = blocking.Block{
			Key: fmt.Sprintf("name-%06d", i),
			E1:  []kb.EntityID{0},
			E2:  []kb.EntityID{kb.EntityID(i % 4)},
		}
	}
	return c
}

func TestBuildAlphaDeduplicates(t *testing.T) {
	alpha1, alpha2 := buildAlpha(uniqueNameBlocks(100), 1, 4)
	if want := []kb.EntityID{0, 1, 2, 3}; !reflect.DeepEqual(alpha1.Row(0), want) {
		t.Errorf("Alpha1[0] = %v, want sorted deduped %v", alpha1.Row(0), want)
	}
	for j := 0; j < alpha2.Len(); j++ {
		if !reflect.DeepEqual(alpha2.Row(j), []kb.EntityID{0}) {
			t.Errorf("Alpha2[%d] = %v, want [0]", j, alpha2.Row(j))
		}
	}
	if int(alpha1.Off[1]) != len(alpha1.Flat) || int(alpha2.Off[4]) != len(alpha2.Flat) {
		t.Error("deduplicated rows no longer cover the flat arrays")
	}
}

// Benchmark guard for the sort+compact alpha construction: with appendUnique
// this was O(nBlocks²) per hot entity (≈10⁸ comparisons at 10k blocks);
// sorted+compact keeps it O(n log n). A regression shows up as a
// catastrophic ns/op jump.
func BenchmarkBuildAlphaSkewedNames(b *testing.B) {
	blocks := uniqueNameBlocks(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildAlpha(blocks, 1, 4)
	}
}

// The shared graph must be the materialized one minus Gamma1, and the γ1
// rows computed from it in one walk must equal the materialized Gamma1.
func TestGamma1RowsMatchMaterialized(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	want := mustBuild(t, seq, in)
	g, _, err := BuildSharedCtx(context.Background(), seq, in, RowsOf(in.Top1), RowsOf(in.Top2))
	if err != nil {
		t.Fatal(err)
	}
	if g.Gamma1.Len() != 0 {
		t.Error("shared graph materialized Gamma1")
	}
	whole := *want
	whole.Gamma1 = Rows[Edge]{}
	if !reflect.DeepEqual(g, &whole) {
		t.Error("shared graph differs from the materialized one outside Gamma1")
	}
	rows, err := g.Gamma1Rows(context.Background(), seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slicesOf(rows), slicesOf(want.Gamma1)) {
		t.Error("gamma1 rows differ from the materialized ones")
	}
	if err := errors.Join(g.CheckShape(w.Len(), d.Len()), g.CheckTargets(seq, w.Len(), d.Len())); err != nil {
		t.Errorf("a built graph must pass both checks: %v", err)
	}
}

// MergeAdjacency's counting pass, scatter and in-place compaction must equal
// the append-per-edge reference on random graphs, including rows that
// repeat a target with unequal weights within one direction and across
// both, empty rows, and no rows at all.
func TestMergeAdjacencyMatchesAppendReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randomRows := func(n, targets int) [][]Edge {
		rows := make([][]Edge, n)
		for i := range rows {
			for c := r.Intn(6); c > 0 && targets > 0; c-- {
				rows[i] = append(rows[i], NewEdge(kb.EntityID(r.Intn(targets)), float64(1+r.Intn(4))/4))
			}
		}
		return rows
	}
	for trial := 0; trial < 200; trial++ {
		n, m := r.Intn(12), r.Intn(12)
		if trial == 0 {
			n, m = 0, 0
		}
		own, reverse := randomRows(n, m), randomRows(m, n)
		want := mergeAdjacencyAppend(own, reverse, n)
		// Spans that drop repeats end short of their successors: one worker,
		// several, and more workers than rows all have to close the gaps.
		e := parallel.New(1 + trial%4)
		got := MergeAdjacency(e, RowsOf(own), RowsOf(reverse))
		if got.Len() != n {
			t.Fatalf("trial %d: %d rows, want %d", trial, got.Len(), n)
		}
		if err := got.CheckShape(n, "merged"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for x := 0; x < n; x++ {
			if !slices.Equal(got.Row(x), want[x]) {
				t.Fatalf("trial %d row %d:\n got %v\nwant %v\n own %v\n reverse %v", trial, x, got.Row(x), want[x], own, reverse)
			}
		}
		// The other side's adjacency, transposed, is the same adjacency.
		if swapped := transposeEdges(MergeAdjacency(e, RowsOf(reverse), RowsOf(own)), n); !reflect.DeepEqual(slicesOf(swapped), slicesOf(got)) {
			t.Fatalf("trial %d: transposed adjacency of the other side differs:\n got %v\nwant %v", trial, slicesOf(swapped), slicesOf(got))
		}
	}
	// Rows without repeats inside one direction — what pruned candidate rows
	// are — must come out at their exact size.
	own := [][]Edge{{NewEdge(0, 1), NewEdge(1, 0.5)}, {NewEdge(1, 0.25)}}
	reverse := [][]Edge{{NewEdge(0, 1), NewEdge(1, 0.75)}, {NewEdge(1, 0.25)}}
	if got := MergeAdjacency(parallel.New(2), RowsOf(own), RowsOf(reverse)); cap(got.Flat) != len(got.Flat) || len(got.Flat) != 4 {
		t.Errorf("merged adjacency holds %d edges in capacity %d, want 4 in 4", len(got.Flat), cap(got.Flat))
	}
}

func TestTopInNeighborsReverses(t *testing.T) {
	top := [][]kb.EntityID{{1, 2}, {2}, nil, {0, 2}}
	in := TopInNeighbors(RowsOf(top))
	want := [][]kb.EntityID{{3}, {0}, {0, 1, 3}, nil}
	if !reflect.DeepEqual(slicesOf(in), want) {
		t.Errorf("TopInNeighbors = %v, want %v", slicesOf(in), want)
	}
	if TopInNeighbors(RowsOf[kb.EntityID](nil)).Len() != 0 {
		t.Error("no rows in, no rows out")
	}
	// Exact inversion on the Figure 1 fixture: src ∈ in[dst] ⇔ dst ∈ top[src].
	w, d := testkb.Figure1()
	top = InputFor(seq, w, d, 2, 5, 3).Top1
	in = TopInNeighbors(RowsOf(top))
	if !slices.Contains(in.Row(int(w.Lookup("w:JohnLakeA"))), w.Lookup("w:Restaurant1")) {
		t.Error("inNeighbors(chef) must contain Restaurant1")
	}
	edges := 0
	for src, ns := range top {
		for _, dst := range ns {
			edges++
			if !slices.Contains(in.Row(int(dst)), kb.EntityID(src)) {
				t.Fatalf("in-neighbor index not the inverse of top-neighbor index")
			}
		}
	}
	if edges != len(in.Flat) {
		t.Fatalf("reverse index holds %d entries for %d top-neighbor edges", len(in.Flat), edges)
	}
}

// CheckShape must refuse every layout that makes taking a row unsafe and a
// γ₁ edge count no graph of the pair can hold, and CheckTargets, on one
// worker or several, every index a consumer would later follow out of
// range — each leaving the other's ground alone.
func TestChecksRejectDamagedGraphs(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	n1, n2 := w.Len(), d.Len()
	for name, c := range map[string]struct {
		damage func(g *Graph)
		shape  bool
	}{
		"beta1 target":   {func(g *Graph) { g.Beta1.Flat[0].To = kb.EntityID(n2) }, false},
		"beta2 target":   {func(g *Graph) { g.Beta2.Flat[0].To = -1 }, false},
		"gamma2 target":  {func(g *Graph) { g.Gamma2.Flat[0].To = kb.EntityID(n1) }, false},
		"adj1 target":    {func(g *Graph) { g.Adj1.Flat[0].To = kb.EntityID(n2) }, false},
		"alpha1 target":  {func(g *Graph) { g.Alpha1.Flat[0] = kb.EntityID(n2) }, false},
		"in2 entity":     {func(g *Graph) { g.In2.Flat[0] = kb.EntityID(n2) }, false},
		"top1 neighbor":  {func(g *Graph) { g.Top1.Flat[0] = kb.EntityID(n1) }, false},
		"top1 rows":      {func(g *Graph) { g.Top1.Off = g.Top1.Off[:n1] }, true},
		"offsets short":  {func(g *Graph) { g.Beta1.Off = g.Beta1.Off[:n1] }, true},
		"offsets beyond": {func(g *Graph) { g.Adj1.Off[n1]++ }, true},
		"offsets fall":   {func(g *Graph) { g.Gamma2.Off[1] = g.Gamma2.Off[n2] + 1 }, true},
		"row bound":      {func(g *Graph) { g.K = 0 }, true},
		"gamma1 count":   {func(g *Graph) { g.Gamma1Edges = n1*min(g.K, n2) + 1 }, true},
		"gamma1 count<0": {func(g *Graph) { g.Gamma1Edges = -1 }, true},
	} {
		g, _, err := BuildSharedCtx(context.Background(), seq, in, RowsOf(in.Top1), RowsOf(in.Top2))
		if err != nil {
			t.Fatal(err)
		}
		c.damage(g)
		if shapeErr := g.CheckShape(n1, n2); (shapeErr != nil) != c.shape {
			t.Errorf("%s: CheckShape = %v", name, shapeErr)
			continue
		}
		for _, e := range []*parallel.Engine{seq, parallel.New(4)} {
			if !c.shape && !errors.Is(g.CheckTargets(e, n1, n2), ErrOutOfRange) {
				t.Errorf("%s: CheckTargets at %d workers passed a damaged graph", name, e.Workers())
			}
		}
	}
}

// Every edge weight must be strictly positive and finite: the scoreboard
// tells untouched candidates by their zero score. A target out of range in
// any row set is reported ahead of a bad weight in any other, on one worker
// or several.
func TestCheckTargetsRejectsBadWeights(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	n1, n2 := w.Len(), d.Len()
	for _, bad := range []float64{0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, edges := range map[string]func(g *Graph) []Edge{
			"beta1":  func(g *Graph) []Edge { return g.Beta1.Flat },
			"beta2":  func(g *Graph) []Edge { return g.Beta2.Flat },
			"gamma1": func(g *Graph) []Edge { return g.Gamma1.Flat },
			"gamma2": func(g *Graph) []Edge { return g.Gamma2.Flat },
			"adj1":   func(g *Graph) []Edge { return g.Adj1.Flat },
		} {
			g, _, err := BuildTimedCtx(context.Background(), seq, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckTargets(seq, n1, n2); err != nil {
				t.Fatalf("a built graph must pass: %v", err)
			}
			es := edges(g)
			es[len(es)/2] = NewEdge(es[len(es)/2].To, bad)
			for _, e := range []*parallel.Engine{seq, parallel.New(4)} {
				if err := g.CheckTargets(e, n1, n2); !errors.Is(err, ErrBadWeight) {
					t.Errorf("%s weight %v at %d workers: CheckTargets = %v, want ErrBadWeight", name, bad, e.Workers(), err)
				}
			}
			last := len(g.Adj1.Flat) - 1
			g.Adj1.Flat[last] = NewEdge(kb.EntityID(n2), g.Adj1.Flat[last].Weight())
			for _, e := range []*parallel.Engine{seq, parallel.New(4)} {
				if err := g.CheckTargets(e, n1, n2); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("%s weight %v and the last adj1 target at %d workers: CheckTargets = %v, want ErrOutOfRange", name, bad, e.Workers(), err)
				}
			}
		}
	}
}

// The query kernels follow targets of a graph that only passed CheckShape:
// they must refuse the out-of-range ones they meet and leave the scratch
// clean for the next query.
func TestQueryKernelsCheckWhatTheyFollow(t *testing.T) {
	w, d := testkb.Figure1()
	in := InputFor(seq, w, d, 2, 5, 2)
	g, _, err := BuildSharedCtx(context.Background(), seq, in, RowsOf(in.Top1), RowsOf(in.Top2))
	if err != nil {
		t.Fatal(err)
	}
	qs := NewQueryScratch(d.Len(), g.K)
	r1 := w.Lookup("w:Restaurant1")
	want, err := g.Gamma1RowFor(in.Top1[r1], qs)
	if err != nil || len(want) == 0 {
		t.Fatalf("Gamma1RowFor = %v, %v; want a row", want, err)
	}
	na := in.Top1[r1][0]
	adj, in2 := g.Adj1.Row(int(na)), g.In2.Row(int(g.Adj1.Row(int(na))[0].To))
	for name, at := range map[string]*kb.EntityID{"adjacency target": &adj[0].To, "reverse-index entity": &in2[0]} {
		for _, bad := range []kb.EntityID{-1, kb.EntityID(d.Len())} {
			good := *at
			*at = bad
			if _, err := g.Gamma1RowFor(in.Top1[r1], qs); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s %d: Gamma1RowFor = %v, want ErrOutOfRange", name, bad, err)
			}
			*at = good
			if got, err := g.Gamma1RowFor(in.Top1[r1], qs); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %d: the row after a refused walk = %v, %v; want %v", name, bad, got, err, want)
			}
		}
	}
}

func TestEmptyKBsGraph(t *testing.T) {
	k1 := kb.NewBuilder("A").Build()
	k2 := kb.NewBuilder("B").Build()
	in := InputFor(seq, k1, k2, 2, 5, 2)
	g := mustBuild(t, seq, in)
	if g.Edges() != 0 {
		t.Errorf("empty KBs produced %d edges", g.Edges())
	}
}

func TestNoSharedTokens(t *testing.T) {
	b1 := kb.NewBuilder("A")
	x := b1.AddEntity("x")
	b1.AddLiteral(x, "label", "alpha beta")
	k1 := b1.Build()
	b2 := kb.NewBuilder("B")
	y := b2.AddEntity("y")
	b2.AddLiteral(y, "label", "gamma delta")
	k2 := b2.Build()
	g := mustBuild(t, seq, InputFor(seq, k1, k2, 1, 5, 2))
	if g.Edges() != 0 {
		t.Errorf("disjoint KBs produced %d edges", g.Edges())
	}
}

// Block Purging is applied to the token index, and the builder must honor
// it: purging the index of a built input gives the graph of an index built
// purged.
func TestBuildHonorsOneSidedPurging(t *testing.T) {
	w, d := testkb.Figure1()
	const threshold = 1 // keep only 1×1 token blocks
	ref := InputFor(seq, w, d, 2, 15, 2)
	var err error
	if ref.TokenIndex, _, err = blocking.NewPurgedTokenIndexCtx(t.Context(), seq, w, d, threshold); err != nil {
		t.Fatal(err)
	}
	want := mustBuild(t, seq, ref)

	indexOnly := InputFor(seq, w, d, 2, 15, 2)
	indexOnly.TokenIndex, _ = indexOnly.TokenIndex.PurgeAbove(threshold)
	if g := mustBuild(t, seq, indexOnly); !reflect.DeepEqual(g.Beta1, want.Beta1) || !reflect.DeepEqual(g.Beta2, want.Beta2) {
		t.Error("index-only purge was not honored")
	}

	// Sanity: purging at this threshold actually removed something, so the
	// comparisons above are not vacuous.
	unpurged := mustBuild(t, seq, InputFor(seq, w, d, 2, 15, 2))
	if reflect.DeepEqual(unpurged.Beta1, want.Beta1) {
		t.Error("threshold removed nothing; test is vacuous")
	}
}
