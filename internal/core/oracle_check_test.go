package core

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

// oracleTiesPath is the ledger of the decisions a near-tie decides on the
// oracle's inputs: per input, the β and γ top-K cuts whose K-th and
// (K+1)-th candidates weigh within oracleEps of each other, the R2 top-1s
// and the R3 picks whose runner-up scores within oracleEps of the winner.
// The counts are exact: TestOracle fails if one moves either way. Rewrite
// it, when a change means to move them, with
//
//	MINOANER_UPDATE_ORACLE_TIES=1 go test ./internal/core -run '^TestOracle$'
const oracleTiesPath = "testdata/oracle_ties.json"

// oracleTies counts the decisions a near-tie decided, per kind.
type oracleTies struct {
	BetaCut  int `json:"beta_cut"`
	GammaCut int `json:"gamma_cut"`
	R2Top1   int `json:"r2_top1"`
	R3Pick   int `json:"r3_pick"`
}

// oracleInput is a pair the oracle checks under a Config; ledger names it
// in the ties ledger.
type oracleInput struct {
	name   string
	k1, k2 *kb.KB
	cfg    Config
	ledger bool
}

// oracleInputs are Figure 1, the skewed fixture and the four presets at
// ×0.1 (one shared dictionary per pair) under the default Config, which the
// ledger counts; randomized pairs with shared dictionaries and built
// separately (the name and KB pairs unpurged: Block Purging would empty
// their small vocabularies); and a pair where R4 removes a match.
func oracleInputs(t *testing.T) []oracleInput {
	w, d := testkb.Figure1()
	inputs := []oracleInput{{name: "Figure 1", k1: w, k2: d, ledger: true}}
	for _, dataset := range []string{"skewed-300", "Restaurant", "Rexa-DBLP", "BBCmusic-DBpedia", "YAGO-IMDb"} {
		k1, k2 := pinnedKBs(t, dataset)
		if dataset != "skewed-300" {
			dataset += " x0.1"
		}
		inputs = append(inputs, oracleInput{name: dataset, k1: k1, k2: k2, ledger: true})
	}
	unpurged := Config{MaxBlockFraction: NoBlockPurging}
	r := rand.New(rand.NewSource(7))
	for _, shared := range []bool{true, false} {
		k1, k2 := randomNameKBs(r, 120, shared)
		inputs = append(inputs, oracleInput{name: fmt.Sprintf("random names (shared=%v)", shared), k1: k1, k2: k2, cfg: unpurged})
	}
	k1, k2 := randomPair(700, 80)
	inputs = append(inputs, oracleInput{name: "random pair", k1: k1, k2: k2})
	inputs = append(inputs, oracleInput{name: "random KBs", cfg: unpurged,
		k1: randomKB(rand.New(rand.NewSource(42)), 80), k2: randomKB(rand.New(rand.NewSource(43)), 90)})
	k1, k2 = outvotedKBs()
	inputs = append(inputs, oracleInput{name: "outvoted", k1: k1, k2: k2})
	return inputs
}

// outvotedKBs builds a pair where R2 matches e0 with the one E2 entity it
// shares a token with, while sixteen other E1 entities share two tokens
// each with it: β₂ keeps those sixteen, no relation gives γ, and R4
// removes the match.
func outvotedKBs() (*kb.KB, *kb.KB) {
	b1, b2 := kb.NewBuilder("O1"), kb.NewBuilder("O2")
	b1.AddLiteral(b1.AddEntity("o1:e0"), "label", "rare")
	target := "rare"
	for i := 1; i <= 16; i++ {
		pair := fmt.Sprintf("first%d second%d", i, i)
		b1.AddLiteral(b1.AddEntity(fmt.Sprintf("o1:e%d", i)), "label", pair)
		target += " " + pair
		b2.AddLiteral(b2.AddEntity(fmt.Sprintf("o2:filler%d", i)), "label", fmt.Sprintf("filler%d", i))
	}
	b2.AddLiteral(b2.AddEntity("o2:target"), "label", target)
	return b1.Build(), b2.Build()
}

// Every stage of the pipeline obeys the paper on every oracle input, at 1,
// 2 and 8 workers, and the decisions a near-tie decides are those of the
// committed ledger, at each worker count.
func TestOracle(t *testing.T) {
	update := os.Getenv("MINOANER_UPDATE_ORACLE_TIES") != ""
	ledger := map[string]oracleTies{}
	if !update {
		raw, err := os.ReadFile(oracleTiesPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &ledger); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]oracleTies{}
	for _, in := range oracleInputs(t) {
		s1, s2 := readSide(t, in.k1), readSide(t, in.k2)
		for _, workers := range []int{1, 2, 8} {
			cfg := in.cfg
			cfg.Workers = workers
			ties := checkOracle(t, fmt.Sprintf("%s workers=%d", in.name, workers), in.k1, in.k2, s1, s2, cfg)
			if prev, ok := got[in.name]; ok && prev != ties {
				t.Errorf("%s: near-ties %+v at %d workers, %+v at 1", in.name, ties, workers, prev)
			}
			got[in.name] = ties
		}
		if !in.ledger {
			delete(got, in.name)
		} else if want, ok := ledger[in.name]; !update && (!ok || want != got[in.name]) {
			t.Errorf("%s: near-ties %+v, the ledger says %+v", in.name, got[in.name], want)
		}
	}
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oracleTiesPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(got) != len(ledger) {
		t.Errorf("the ledger names %d inputs, the test checks %d", len(ledger), len(got))
	}
}

// checkOracle builds and resolves the pair under cfg and checks every stage
// against the oracle, fed the kernels' output of the stage before, and
// three properties of the output. It returns the near-ties it counted.
func checkOracle(t *testing.T, at string, k1, k2 *kb.KB, s1, s2 *oSide, cfg Config) oracleTies {
	t.Helper()
	ctx := context.Background()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng := parallel.New(cfg.Workers)
	n1, n2 := k1.Len(), k2.Len()
	var ties oracleTies

	// Statistics.
	ef1, ef2 := s1.ef(), s2.ef()
	checkEF(t, at+" E1", eng, k1, ef1)
	checkEF(t, at+" E2", eng, k2, ef2)
	sub, err := buildSubstrate(ctx, eng, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for side, c := range []struct {
		s     *oSide
		k     *kb.KB
		attrs []string
		top   graph.Rows[kb.EntityID]
	}{{s1, k1, sub.nameAttrs1, sub.top1}, {s2, k2, sub.nameAttrs2, sub.top2}} {
		if want := c.s.nameAttributes(cfg.NameK); !slices.Equal(c.attrs, want) {
			t.Fatalf("%s E%d: name attributes %v, the oracle's %v", at, side+1, c.attrs, want)
		}
		rs, err := stats.RelationImportancesCtx(ctx, eng, c.k)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]string, len(rs))
		for i, r := range rs {
			order[i] = r.Predicate
		}
		if want := c.s.relationOrder(); !slices.Equal(order, want) {
			t.Fatalf("%s E%d: relation order %v, the oracle's %v", at, side+1, order, want)
		}
		for i, want := range c.s.topNeighbors(order, cfg.RelN) {
			if got := c.top.Row(i); !slices.Equal(got, want) {
				t.Fatalf("%s E%d: top neighbors of %s are %v, the oracle's %v", at, side+1, c.s.uris[i], got, want)
			}
		}
	}

	// Blocking.
	names := kernelBlocks(NameBlocksOf(t, sub))
	if want := nameBlocks(s1, s2, sub.nameAttrs1, sub.nameAttrs2); !blocksEqual(names, want) {
		t.Fatalf("%s: name blocks differ from the oracle's", at)
	}
	budget := purgeBudget(n1, n2, cfg.MaxBlockFraction)
	tokens, purged := purge(tokenBlocks(s1, s2), budget)
	if got := kernelBlocks(TokenBlocksOf(t, sub)); !blocksEqual(got, tokens) {
		t.Fatalf("%s: token blocks differ from the oracle's", at)
	}
	if sub.PurgeThreshold() != budget || sub.PurgedBlocks() != purged {
		t.Fatalf("%s: %d blocks purged above %d, the oracle purges %d above %d", at, sub.PurgedBlocks(), sub.PurgeThreshold(), purged, budget)
	}

	// The graph: α from the name blocks, β from the token blocks, γ from
	// the β rows and the top neighbors.
	pg, err := sub.graphFor(ctx, eng, cfg.TopK)
	if err != nil {
		t.Fatal(err)
	}
	g := pg.g
	a1, a2 := alpha(names, n1, n2)
	for side, c := range []struct {
		got  graph.Rows[kb.EntityID]
		want [][]kb.EntityID
	}{{g.Alpha1, a1}, {g.Alpha2, a2}} {
		for i, want := range c.want {
			if got := c.got.Row(i); len(got)+len(want) > 0 && !slices.Equal(got, want) {
				t.Fatalf("%s: α%d row %d is %v, the oracle's %v", at, side+1, i, got, want)
			}
		}
	}
	kept := map[string]oBlock{}
	for _, b := range tokens {
		kept[b.key] = b
	}
	for i := range n1 {
		ties.BetaCut += checkRow(t, at, "β1", i, g.Beta1.Row(i), valueSims(s1.tokens[i], true, kept, ef1, ef2), cfg.TopK)
	}
	for j := range n2 {
		ties.BetaCut += checkRow(t, at, "β2", j, g.Beta2.Row(j), valueSims(s2.tokens[j], false, kept, ef1, ef2), cfg.TopK)
	}
	gamma1, err := g.Gamma1Rows(ctx, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	adj1, adj2 := undirected(g.Beta1, g.Beta2), undirected(g.Beta2, g.Beta1)
	in1, in2 := reverse(sub.top1), reverse(sub.top2)
	for i := range n1 {
		ties.GammaCut += checkRow(t, at, "γ1", i, gamma1.Row(i), neighborSims(sub.top1.Row(i), adj1, in2), cfg.TopK)
	}
	for j := range n2 {
		ties.GammaCut += checkRow(t, at, "γ2", j, g.Gamma2.Row(j), neighborSims(sub.top2.Row(j), adj2, in1), cfg.TopK)
	}

	// Matching, over the kernels' graph.
	out, err := resolveWith(ctx, eng, sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	og := &oGraph{alpha1: g.Alpha1.Nested(), alpha2: g.Alpha2.Nested(),
		beta1: scoredRows(g.Beta1), beta2: scoredRows(g.Beta2), gamma1: scoredRows(gamma1), gamma2: scoredRows(g.Gamma2)}
	want, removed, r2Ties, pickTie1, pickTie2 := og.resolve(cfg.Theta)
	ties.R2Top1 = r2Ties
	for _, tied := range []map[kb.EntityID]bool{pickTie1, pickTie2} {
		for _, tie := range tied {
			if tie {
				ties.R3Pick++
			}
		}
	}
	got := make([]oMatch, len(out.Matches))
	for i, m := range out.Matches {
		got[i] = oMatch{m.Pair.E1, m.Pair.E2, m.Rule.String()}
	}
	if !slices.Equal(got, want) {
		// A pair may differ only where a near-tie decided an R3 pick.
		for _, m := range symmetricDifference(got, want) {
			if m.rule != "R3" || !(pickTie1[m.e1] || pickTie2[m.e2]) {
				t.Fatalf("%s: match %s=%s (%s) is in only one of the kernels' %d matches and the oracle's %d, and no near-tie decided it",
					at, s1.uris[m.e1], s2.uris[m.e2], m.rule, len(got), len(want))
			}
		}
	} else if out.RemovedByR4 != removed {
		t.Fatalf("%s: R4 removed %d matches, the oracle %d", at, out.RemovedByR4, removed)
	}

	// Properties of the output.
	used1, used2 := map[kb.EntityID]bool{}, map[kb.EntityID]bool{}
	block := map[string]oBlock{}
	for _, b := range names {
		block[b.key] = b
	}
	for _, m := range got {
		if used1[m.e1] || used2[m.e2] {
			t.Fatalf("%s: %s=%s breaks the 1–1 mapping", at, s1.uris[m.e1], s2.uris[m.e2])
		}
		used1[m.e1], used2[m.e2] = true, true
		if m.rule == "R1" && !slices.ContainsFunc(s1.names(int(m.e1), sub.nameAttrs1), func(n string) bool {
			b := block[n]
			return slices.Equal(b.e1, []kb.EntityID{m.e1}) && slices.Equal(b.e2, []kb.EntityID{m.e2})
		}) {
			t.Fatalf("%s: R1 matched %s=%s on no name each KB carries once", at, s1.uris[m.e1], s2.uris[m.e2])
		}
		if !og.reciprocal(m.e1, m.e2) {
			t.Fatalf("%s: %s=%s survived R4 without both directed edges", at, s1.uris[m.e1], s2.uris[m.e2])
		}
	}
	return ties
}

// checkEF checks the kernel's EF index of a KB against the oracle's counts.
func checkEF(t *testing.T, at string, eng *parallel.Engine, k *kb.KB, want map[string]int) {
	t.Helper()
	ix, err := stats.BuildEFCtx(context.Background(), eng, k)
	if err != nil {
		t.Fatal(err)
	}
	for tk, c := range want {
		if got := ix.EF(tk); got != c {
			t.Fatalf("%s: EF(%q) = %d, the oracle counts %d", at, tk, got, c)
		}
	}
	if ix.DistinctTokens() != len(want) {
		t.Fatalf("%s: %d distinct tokens, the oracle counts %d", at, ix.DistinctTokens(), len(want))
	}
}

// checkRow checks a kernel top-K row against the oracle's weight of every
// candidate: it holds min(k, candidates) distinct candidates, each weighing
// within oracleEps of the oracle, heavier first and ties toward the lower
// ID, and no candidate it drops outweighs one it keeps by more than
// oracleEps. It returns 1 when a near-tie decides the cut — the oracle's
// K-th and (K+1)-th weights lie within oracleEps — and 0 otherwise.
func checkRow(t *testing.T, at, what string, i int, row []graph.Edge, want map[kb.EntityID]float64, k int) int {
	t.Helper()
	if len(row) != min(k, len(want)) {
		t.Fatalf("%s: %s row %d: %d candidates, the oracle's %d at K=%d", at, what, i, len(row), len(want), k)
	}
	kept := map[kb.EntityID]bool{}
	lightest := math.Inf(1)
	for idx, e := range row {
		w, ok := want[e.To]
		switch {
		case !ok || kept[e.To]:
			t.Fatalf("%s: %s row %d: candidate %d is repeated or no candidate", at, what, i, e.To)
		case math.Abs(e.Weight()-w) > oracleEps:
			t.Fatalf("%s: %s row %d: candidate %d weighs %.17g, the oracle %.17g", at, what, i, e.To, e.Weight(), w)
		case idx > 0 && cmp.Or(cmp.Compare(row[idx-1].Weight(), e.Weight()), cmp.Compare(e.To, row[idx-1].To)) <= 0:
			t.Fatalf("%s: %s row %d: candidate %d comes before %d without outranking it", at, what, i, row[idx-1].To, e.To)
		}
		kept[e.To] = true
		lightest = min(lightest, w)
	}
	weights := make([]float64, 0, len(want))
	for to, w := range want {
		if !kept[to] && w > lightest+oracleEps {
			t.Fatalf("%s: %s row %d: dropped candidate %d weighs %.17g, more than the kept %.17g", at, what, i, to, w, lightest)
		}
		weights = append(weights, w)
	}
	if len(weights) <= k {
		return 0
	}
	slices.SortFunc(weights, func(a, b float64) int { return cmp.Compare(b, a) })
	if weights[k-1]-weights[k] <= oracleEps {
		return 1
	}
	return 0
}

// kernelBlocks is a kernel collection as oracle blocks.
func kernelBlocks(c *blocking.Collection) []oBlock {
	out := make([]oBlock, len(c.Blocks))
	for i, b := range c.Blocks {
		out[i] = oBlock{b.Key, b.E1, b.E2}
	}
	return out
}

func blocksEqual(got, want []oBlock) bool {
	return slices.EqualFunc(got, want, func(a, b oBlock) bool {
		return a.key == b.key && slices.Equal(a.e1, b.e1) && slices.Equal(a.e2, b.e2)
	})
}

// undirected merges the retained β edges of both directions into one edge
// set indexed by the nodes of own's side: each edge once, at the higher of
// its two weights, ascending by target.
func undirected(own, other graph.Rows[graph.Edge]) map[kb.EntityID][]scored {
	w := map[kb.EntityID]map[kb.EntityID]float64{}
	add := func(x, y kb.EntityID, weight float64) {
		if w[x] == nil {
			w[x] = map[kb.EntityID]float64{}
		}
		w[x][y] = max(w[x][y], weight)
	}
	for x := range own.Len() {
		for _, e := range own.Row(x) {
			add(kb.EntityID(x), e.To, e.Weight())
		}
	}
	for y := range other.Len() {
		for _, e := range other.Row(y) {
			add(e.To, kb.EntityID(y), e.Weight())
		}
	}
	adj := map[kb.EntityID][]scored{}
	for x, ys := range w {
		for _, y := range sortedKeys(ys) {
			adj[x] = append(adj[x], scored{y, ys[y]})
		}
	}
	return adj
}

// reverse indexes top-neighbor rows by neighbor: the entities that have y
// among their top neighbors, ascending.
func reverse(top graph.Rows[kb.EntityID]) map[kb.EntityID][]kb.EntityID {
	in := map[kb.EntityID][]kb.EntityID{}
	for b := range top.Len() {
		for _, y := range top.Row(b) {
			in[y] = append(in[y], kb.EntityID(b))
		}
	}
	return in
}

func scoredRows(r graph.Rows[graph.Edge]) [][]scored {
	out := make([][]scored, r.Len())
	for i := range out {
		for _, e := range r.Row(i) {
			out[i] = append(out[i], scored{e.To, e.Weight()})
		}
	}
	return out
}

func symmetricDifference(a, b []oMatch) []oMatch {
	var out []oMatch
	for _, m := range a {
		if !slices.Contains(b, m) {
			out = append(out, m)
		}
	}
	for _, m := range b {
		if !slices.Contains(a, m) {
			out = append(out, m)
		}
	}
	return out
}

// randomNameKBs builds a KB pair with collision-heavy literals: duplicate
// (attr, value) statements, the same value under several attributes, values
// that normalize to the empty string, and raw spellings that collide after
// normalization — every edge the name(e) contract defines.
func randomNameKBs(r *rand.Rand, n int, shared bool) (*kb.KB, *kb.KB) {
	var b1, b2 *kb.Builder
	if shared {
		dict := kb.NewInterner()
		sch := kb.NewSchema()
		b1 = kb.NewBuilderWithDicts("A", dict, sch)
		b2 = kb.NewBuilderWithDicts("B", dict, sch)
	} else {
		b1, b2 = kb.NewBuilder("A"), kb.NewBuilder("B")
	}
	attrs := []string{"name", "label", "title", "note"}
	values := []string{
		"alice", "bob", "carol", "dave", "erin", "mallory",
		"  ", "###", // normalize to the empty value → dropped from names
		"J. Lake", "j lake", // distinct raw, same normalized form
	}
	fill := func(b *kb.Builder, side string) {
		for i := 0; i < n; i++ {
			e := b.AddEntity(fmt.Sprintf("%s:e%d", side, i))
			for j := r.Intn(5); j >= 0; j-- {
				b.AddLiteral(e, attrs[r.Intn(len(attrs))], values[r.Intn(len(values))])
			}
		}
	}
	fill(b1, "a")
	fill(b2, "b")
	return b1.Build(), b2.Build()
}

// randomKB builds a KB with colliding values, values that normalize to the
// empty string, duplicate (s, p, o) statements and objects that name no
// entity (literals).
func randomKB(rng *rand.Rand, n int) *kb.KB {
	b := kb.NewBuilder("random")
	preds := []string{"knows", "cites", "partOf", "sameTopicAs", "advises"}
	attrs := []string{"label", "title", "year", "note", "comment", "Label"}
	for i := 0; i < n; i++ {
		b.AddEntity(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < n; i++ {
		id := kb.EntityID(i)
		for s := rng.Intn(6); s > 0; s-- {
			v := [...]string{"alpha beta", "Alpha-Beta!", "gamma", fmt.Sprintf("v%d", rng.Intn(8)), "--", ""}[rng.Intn(6)]
			b.AddLiteral(id, attrs[rng.Intn(len(attrs))], v)
		}
		for s := rng.Intn(5); s > 0; s-- {
			p := preds[rng.Intn(len(preds))]
			if rng.Intn(2) == 0 {
				obj := fmt.Sprintf("e%d", rng.Intn(n))
				b.AddObject(id, p, obj)
				if rng.Intn(3) == 0 {
					b.AddObject(id, p, obj)
				}
			} else {
				b.AddObject(id, p, fmt.Sprintf("external%d", rng.Intn(4)))
			}
		}
	}
	return b.Build()
}

// The columnar name index gives the oracle's name blocks, on shared and
// disjoint schema dictionaries, with asymmetric name-attribute sets, at any
// worker count.
func TestNameIndexMatchesMapReference(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	engines := []*parallel.Engine{parallel.Sequential(), parallel.New(3), parallel.New(8)}
	for trial := 0; trial < 20; trial++ {
		shared := trial%2 == 0
		k1, k2 := randomNameKBs(r, 30+r.Intn(120), shared)
		na1 := []string{"name", "label"}
		na2 := []string{"title", "name"}
		if trial%3 == 0 {
			na2 = na1
		}
		want := nameBlocks(readSide(t, k1), readSide(t, k2), na1, na2)
		for _, e := range engines {
			ix, err := blocking.NewNameIndexLookupsCtx(ctx, e, stats.NewNameLookup(k1, na1), stats.NewNameLookup(k2, na2))
			if err != nil {
				t.Fatal(err)
			}
			if got := kernelBlocks(ix.Collection()); !blocksEqual(got, want) {
				t.Fatalf("trial %d (shared=%v, workers=%d): name blocks differ from the oracle's\ngot:  %+v\nwant: %+v",
					trial, shared, e.Workers(), got, want)
			}
		}
	}
}

// The token index's collection is the oracle's token blocking of Figure 1,
// whose KBs have separate dictionaries (the index merges them).
func TestTokenIndexCollectionMatchesTokenBlocks(t *testing.T) {
	w, d := testkb.Figure1()
	ix, err := blocking.NewTokenIndexCtx(context.Background(), parallel.New(2), w, d)
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Collection()
	if got.Len() == 0 {
		t.Fatal("no token blocks")
	}
	if ix.Live() != got.Len() {
		t.Errorf("Live = %d, Collection len = %d", ix.Live(), got.Len())
	}
	if !blocksEqual(kernelBlocks(got), tokenBlocks(readSide(t, w), readSide(t, d))) {
		t.Error("Collection() and the oracle's token blocks disagree")
	}
}

// PurgeAbove on the index purges the oracle's blocks and leaves the
// receiver untouched.
func TestTokenIndexPurgeAboveMatchesCollectionPurge(t *testing.T) {
	w, d := testkb.Figure1()
	ix, err := blocking.NewTokenIndexCtx(context.Background(), parallel.Sequential(), w, d)
	if err != nil {
		t.Fatal(err)
	}
	all := tokenBlocks(readSide(t, w), readSide(t, d))
	const threshold = 1 // keep only 1×1 blocks
	purgedIx, n := ix.PurgeAbove(threshold)
	want, wantPurged := purge(all, threshold)
	if n != wantPurged || n == 0 {
		t.Errorf("purged %d blocks, the oracle %d; want the same, and some", n, wantPurged)
	}
	if !blocksEqual(kernelBlocks(purgedIx.Collection()), want) {
		t.Error("purged index collection differs from the oracle's purged blocks")
	}
	if ix.Live() != len(all) {
		t.Error("PurgeAbove mutated the receiver")
	}
	if keep, n := ix.PurgeAbove(0); keep != ix || n != 0 {
		t.Error("non-positive threshold must be a no-op view")
	}
}

// The member fill lists, per token, the entities that carry it — the
// oracle's postings — for any worker count and either scheduler: each KB of
// Figure 1 paired with itself (one dictionary) and with a copy (two, so the
// index merges them), where every token is a block.
func TestMemberFillStrategiesAgree(t *testing.T) {
	w, d := testkb.Figure1()
	for _, k := range []*kb.KB{w, d} {
		postings := readSide(t, k).postings()
		var want []oBlock
		for _, tk := range sortedKeys(postings) {
			want = append(want, oBlock{tk, postings[tk], postings[tk]})
		}
		for _, other := range []*kb.KB{k, testkb.Clone(k)} {
			for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(3), parallel.New(7).Chunked()} {
				ix, err := blocking.NewTokenIndexCtx(t.Context(), e, k, other)
				if err != nil {
					t.Fatal(err)
				}
				if got := kernelBlocks(ix.Collection()); !blocksEqual(got, want) {
					t.Fatalf("%s, workers=%d, shared dictionary=%v: members differ from the oracle's postings\ngot:  %v\nwant: %v",
						k.Name(), e.Workers(), k.TokenDict() == other.TokenDict(), got, want)
				}
			}
		}
	}
}

// The EF index counts what the oracle counts, at any worker count.
func TestEFCountStrategiesAgree(t *testing.T) {
	k := randomKB(rand.New(rand.NewSource(42)), 80)
	want := readSide(t, k).ef()
	for _, workers := range []int{1, 4} {
		checkEF(t, fmt.Sprintf("workers=%d", workers), parallel.New(workers), k, want)
	}
}
