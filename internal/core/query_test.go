package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

// buildBatchGraph builds the whole disjunctive blocking graph over a
// substrate, E1-side γ rows included — the batch rows QueryEntity must
// reproduce entity for entity.
func buildBatchGraph(t *testing.T, sub *Substrate) *graph.Graph {
	t.Helper()
	eng := parallel.New(sub.cfg.Workers)
	g, _, err := graph.BuildTimedCtx(context.Background(), eng, graph.Input{
		K1: sub.k1, K2: sub.k2,
		NameBlocks: NameBlocksOf(t, sub),
		TokenIndex: sub.tokenIx.Load(),
		Top1:       sub.top1.Nested(),
		Top2:       sub.top2.Nested(),
		K:          sub.cfg.TopK,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// expectedQueryMatches assembles, from the BATCH graph rows of entity e, the
// QueryMatch list the query path must return: α candidates first in entity
// order, then the fused rank-aggregation order, with the batch per-entity
// rule claims (R1 membership, R2's top-β-weight ≥ 1 predicate, R3's top
// aggregate pick) and R4's reciprocity bit.
func expectedQueryMatches(sub *Substrate, g *graph.Graph, e kb.EntityID, mc matching.Config) []QueryMatch {
	beta, gamma := g.Beta1.Row(int(e)), g.Gamma1.Row(int(e))
	var alpha []kb.EntityID
	if mc.EnableR1 {
		alpha = g.Alpha1.Row(int(e))
	}
	ranking := matching.RankAggregateRow(matching.NewAggScratch(), beta, gamma, mc.Theta, mc.UseNeighbors)
	r2cand := kb.NoEntity
	if mc.EnableR2 && len(beta) > 0 && beta[0].Weight() >= 1 {
		r2cand = beta[0].To
	}
	weightIn := func(row []graph.Edge, to kb.EntityID) float64 {
		for _, ed := range row {
			if ed.To == to {
				return ed.Weight()
			}
		}
		return 0
	}
	emit := func(c kb.EntityID, rule matching.Rule, score float64) QueryMatch {
		reciprocal, _ := g.HasEdge2(c, e, sub.k1.Len()) // a built graph holds no damaged entry
		return QueryMatch{
			Candidate:   c,
			URI:         sub.k2.URI(c),
			Rule:        rule,
			Score:       score,
			ValueSim:    weightIn(beta, c),
			NeighborSim: weightIn(gamma, c),
			Reciprocal:  reciprocal,
		}
	}
	out := make([]QueryMatch, 0, len(alpha)+len(ranking))
	for _, c := range alpha {
		out = append(out, emit(c, matching.RuleName, weightIn(ranking, c)))
	}
	for i, ed := range ranking {
		in := false
		for _, c := range alpha {
			if c == ed.To {
				in = true
			}
		}
		if in {
			continue
		}
		rule := matching.RuleNone
		switch {
		case ed.To == r2cand:
			rule = matching.RuleValue
		case i == 0 && mc.EnableR3:
			rule = matching.RuleRank
		}
		out = append(out, emit(ed.To, rule, ed.Weight()))
	}
	return out
}

// randomPair builds two KBs with overlapping labels, shared tokens and
// random internal links — the randomized fixtures of the query/batch
// equivalence property test.
func randomPair(seed int64, n int) (*kb.KB, *kb.KB) {
	r := rand.New(rand.NewSource(seed))
	b1, b2 := kb.NewBuilder("Q1"), kb.NewBuilder("Q2")
	vocab := []string{"alpha", "beta", "gamma", "delta", "rho", "sigma", "tau", "omega"}
	for i := 0; i < n; i++ {
		b1.AddEntity(fmt.Sprintf("q1:e%d", i))
		b2.AddEntity(fmt.Sprintf("q2:e%d", i))
	}
	for i := 0; i < n; i++ {
		id1, id2 := kb.EntityID(i), kb.EntityID(i)
		label := fmt.Sprintf("ent%d %s %s", i, vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))])
		b1.AddLiteral(id1, "name", label)
		if r.Intn(4) > 0 {
			b2.AddLiteral(id2, "name", label)
		} else {
			b2.AddLiteral(id2, "name", fmt.Sprintf("other%d %s", i, vocab[r.Intn(len(vocab))]))
		}
		if r.Intn(2) == 0 {
			b1.AddLiteral(id1, "note", vocab[r.Intn(len(vocab))])
		}
		if r.Intn(2) == 0 {
			b2.AddLiteral(id2, "note", vocab[r.Intn(len(vocab))])
		}
		for l := r.Intn(3); l > 0; l-- {
			b1.AddObject(id1, "linked", fmt.Sprintf("q1:e%d", r.Intn(n)))
			b2.AddObject(id2, "linked", fmt.Sprintf("q2:e%d", r.Intn(n)))
		}
		if r.Intn(3) == 0 {
			b1.AddObject(id1, "cites", fmt.Sprintf("q1:e%d", r.Intn(n)))
		}
	}
	return b1.Build(), b2.Build()
}

// reassembled takes sub apart and puts it back together as a snapshot's
// loader does (SubstrateFromParts, InstallGraph), so its token index is
// derived on first use.
func reassembled(t *testing.T, sub *Substrate) *Substrate {
	t.Helper()
	g, err := sub.ExportGraph(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := SubstrateFromParts(sub.Parts())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.InstallGraph(g); err != nil {
		t.Fatal(err)
	}
	return r
}

// checkQueryEquivalence asserts that replaying every E1 entity — through
// QueryEntity on its statements, and through ReplayEntity on its stored
// rows — reproduces its batch candidate rows and per-entity rule decisions
// exactly, and that QueryEntity gives the same rows on the substrate
// reassembled from its parts, over a derived token index. It returns how
// many β edges of the fixture are asymmetric: c ∈ Beta1(e) but
// e ∉ Beta2(c), the edges whose R4 reciprocity bit only E2's own rows can
// settle.
func checkQueryEquivalence(t *testing.T, name string, k1, k2 *kb.KB, cfg Config) (asymmetric int) {
	t.Helper()
	ctx := context.Background()
	sub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := buildBatchGraph(t, sub)
	opened := reassembled(t, sub)
	mc := *sub.cfg.Rules
	mc.Theta = sub.cfg.Theta
	for i := 0; i < k1.Len(); i++ {
		e := kb.EntityID(i)
		got, err := QueryEntity(ctx, sub, QueryFromEntity(k1, e), cfg)
		if err != nil {
			t.Fatalf("%s: QueryEntity(%d): %v", name, e, err)
		}
		want := expectedQueryMatches(sub, g, e, mc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: entity %d: query/batch divergence\n got: %+v\nwant: %+v", name, e, got, want)
		}
		derived, err := QueryEntity(ctx, opened, QueryFromEntity(k1, e), cfg)
		if err != nil {
			t.Fatalf("%s: QueryEntity(%d) over a derived index: %v", name, e, err)
		}
		if !reflect.DeepEqual(derived, got) {
			t.Fatalf("%s: entity %d: built/derived index divergence\n got: %+v\nwant: %+v", name, e, derived, got)
		}
		replay, err := ReplayEntity(ctx, sub, e, cfg)
		if err != nil {
			t.Fatalf("%s: ReplayEntity(%d): %v", name, e, err)
		}
		if !reflect.DeepEqual(replay, got) {
			t.Fatalf("%s: entity %d: replay/query divergence\n got: %+v\nwant: %+v", name, e, replay, got)
		}
		for _, ed := range g.Beta1.Row(i) {
			if !graph.EdgeListContains(g.Beta2.Row(int(ed.To)), e) {
				asymmetric++
			}
		}
	}
	if n := opened.tokenDerives.Load(); k1.Len() > 0 && n != 1 {
		t.Fatalf("%s: the reassembled substrate derived its token index %d times, want once", name, n)
	}
	return asymmetric
}

// Property: for every entity e ∈ E1, QueryEntity on the frozen substrate
// reproduces exactly the batch candidate rows (α, β, γ, fused ranking) and
// the per-entity R1–R4 decisions — on the skewed determinism fixture,
// randomized fixtures, and one Table-1 preset.
func TestQueryEntityMatchesBatch(t *testing.T) {
	k1, k2 := skewedKBs(300)
	checkQueryEquivalence(t, "skewed-300", k1, k2, Config{Workers: 4})
	for seed := int64(0); seed < 4; seed++ {
		r1, r2 := randomPair(700+seed, 80)
		checkQueryEquivalence(t, fmt.Sprintf("random-%d", seed), r1, r2, Config{Workers: 2})
	}
	// Ablated rules must flow through to query rule claims the same way.
	a1, a2 := randomPair(900, 60)
	rules := matching.Config{EnableR2: true, EnableR3: true, UseNeighbors: false}
	checkQueryEquivalence(t, "ablated", a1, a2, Config{Workers: 2, Rules: &rules})
}

// The same property on two Table-1 presets at ×0.1. YAGO-IMDb is the one
// whose β graph has asymmetric edges at the default K (none of the fixtures
// above has any), so it is what checks R4's reciprocity bit against E2's
// rows rather than against E1's.
func TestQueryEntityMatchesBatchOnPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("preset equivalence sweep skipped in -short")
	}
	for _, profile := range []datagen.Profile{datagen.Restaurant(), datagen.YAGOIMDb()} {
		d, err := datagen.Generate(datagen.Scale(profile, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		asymmetric := checkQueryEquivalence(t, profile.Name, d.K1, d.K2, Config{})
		if profile.Name == "YAGO-IMDb" && asymmetric == 0 {
			t.Errorf("%s: no asymmetric β edge; the reciprocity bit goes unchecked", profile.Name)
		}
	}
}

// A substrate must serve many concurrent queries race-free with
// deterministic results, on the statement path and the replay kernel alike
// (both take pooled scratch); run under -race this doubles as the hammer
// test.
func TestQueryEntityConcurrent(t *testing.T) {
	ctx := context.Background()
	k1, k2 := skewedKBs(200)
	cfg := Config{Workers: 2}
	sub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No prewarm on purpose: the goroutines below race to build the lazy
	// query state through the singleflight path, half of them from each
	// kernel.
	refs := make([][]QueryMatch, k1.Len())
	refSub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if refs[i], err = QueryEntity(ctx, refSub, QueryFromEntity(k1, kb.EntityID(i)), cfg); err != nil {
			t.Fatal(err)
		}
	}
	newQuery := EntityQuery{
		URI:     "q:new",
		Attrs:   []kb.AttributeValue{{Attribute: "label", Value: "pop2 pop3 freshtoken"}},
		Objects: []QueryObject{{Predicate: "linked", Object: "s1:e10"}},
	}
	newRef, err := QueryEntity(ctx, refSub, newQuery, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kernels := []func(e kb.EntityID) ([]QueryMatch, error){
				func(e kb.EntityID) ([]QueryMatch, error) { return QueryEntity(ctx, sub, QueryFromEntity(k1, e), cfg) },
				func(e kb.EntityID) ([]QueryMatch, error) { return ReplayEntity(ctx, sub, e, cfg) },
			}
			if w%2 == 1 {
				slices.Reverse(kernels)
			}
			for i := 0; i < 40; i++ {
				e := (w*41 + i*7) % k1.Len()
				for _, kernel := range kernels {
					got, err := kernel(kb.EntityID(e))
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, refs[e]) {
						errs <- fmt.Errorf("worker %d: entity %d diverged under concurrency", w, e)
						return
					}
				}
				if i%8 == 0 {
					got, err := QueryEntity(ctx, sub, newQuery, cfg)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, newRef) {
						errs <- fmt.Errorf("worker %d: new-entity query diverged under concurrency", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A replay reads its α and β rows and its top-neighbor list in place, so it
// allocates three times whatever the entity's description holds: its γ row,
// the fused ranking and the result.
func TestReplayEntityAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops scratch at random, so a query may allocate a new one")
	}
	ctx := context.Background()
	k1, k2 := randomPair(700, 80)
	sub, err := BuildSubstrate(ctx, k1, k2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A normalized config: normalizing a zero one allocates its default
	// Rules.
	cfg := sub.Config()
	e := kb.NoEntity
	for i := range k1.Len() {
		ms, err := ReplayEntity(ctx, sub, kb.EntityID(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.top1.Row(i)) > 0 && len(ms) > 1 && ms[0].NeighborSim > 0 {
			e = kb.EntityID(i)
			break
		}
	}
	if e == kb.NoEntity {
		t.Fatal("no entity with neighbours and several candidates; test is vacuous")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReplayEntity(ctx, sub, e, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 3 {
		t.Errorf("ReplayEntity allocates %v times per query, want 3", allocs)
	}
}

func TestQueryEntityNewEntity(t *testing.T) {
	ctx := context.Background()
	b1, b2 := kb.NewBuilder("N1"), kb.NewBuilder("N2")
	for i := 0; i < 12; i++ {
		id1 := b1.AddEntity(fmt.Sprintf("n1:e%d", i))
		id2 := b2.AddEntity(fmt.Sprintf("n2:e%d", i))
		b1.AddLiteral(id1, "name", fmt.Sprintf("left item %d", i))
		b2.AddLiteral(id2, "name", fmt.Sprintf("right item %d", i))
		if i > 0 {
			b1.AddObject(id1, "linked", fmt.Sprintf("n1:e%d", i-1))
		}
	}
	// One K2-only name a new entity can α-match.
	b2.AddLiteral(kb.EntityID(5), "name", "the unique beacon")
	k1, k2 := b1.Build(), b2.Build()
	sub, err := BuildSubstrate(ctx, k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := EntityQuery{
		URI:   "q:new",
		Attrs: []kb.AttributeValue{{Attribute: "name", Value: "The Unique Beacon!"}},
		Objects: []QueryObject{
			{Predicate: "linked", Object: "n1:e3"},
			{Predicate: "neverseen", Object: "n1:e4"},
			{Predicate: "linked", Object: "missing:uri"}, // demoted to a literal
		},
	}
	ms, err := QueryEntity(ctx, sub, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("new-entity query found no candidates")
	}
	if ms[0].Rule != matching.RuleName || ms[0].Candidate != kb.EntityID(5) {
		t.Fatalf("expected α match on entity 5 first, got %+v", ms[0])
	}
	for _, m := range ms {
		if m.Reciprocal {
			t.Fatalf("new entity cannot have reciprocal back-edges: %+v", m)
		}
	}

	// A new entity reusing an EXISTING E1 entity's unique name must not α
	// match (the name is no longer unique on the E1 side once it arrives).
	taken := EntityQuery{URI: "q:dup", Attrs: []kb.AttributeValue{{Attribute: "name", Value: "right item 4"}}}
	// "right item 4" exists only in K2 → α candidate allowed…
	ms, err = QueryEntity(ctx, sub, taken, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 || ms[0].Rule != matching.RuleName {
		t.Fatalf("K2-unique name should α-match, got %+v", ms)
	}
	// …while an E1-used name must not.
	used := EntityQuery{URI: "q:used", Attrs: []kb.AttributeValue{{Attribute: "name", Value: "left item 4"}}}
	ms, err = QueryEntity(ctx, sub, used, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Rule == matching.RuleName {
			t.Fatalf("name used by an E1 entity α-matched a new entity: %+v", m)
		}
	}

	if _, err := QueryEntity(ctx, sub, EntityQuery{SelfURI: "nope:nope"}, Config{}); err == nil {
		t.Fatal("unknown SelfURI must be rejected")
	}
	if ms, err := QueryEntity(ctx, sub, EntityQuery{URI: "q:empty"}, Config{}); err != nil || len(ms) != 0 {
		t.Fatalf("empty query = (%v, %v), want no candidates", ms, err)
	}
}

// BuildSubstrate + ResolveWith must equal Resolve byte for byte, across
// repeated consumption of one substrate.
func TestResolveWithMatchesResolve(t *testing.T) {
	ctx := context.Background()
	k1, k2 := skewedKBs(300)
	_, refDigest := resolveDigest(t, k1, k2, Config{Workers: 4})
	sub, err := BuildSubstrate(ctx, k1, k2, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		out, err := ResolveWith(ctx, sub, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if digest(t, sub, out) != refDigest {
			t.Fatalf("ResolveWith round %d differs from Resolve", round)
		}
	}
	// Queries and batch resolution share one substrate without interference.
	if _, err := QueryEntity(ctx, sub, QueryFromEntity(k1, 0), Config{}); err != nil {
		t.Fatal(err)
	}
	out, err := ResolveWith(ctx, sub, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, sub, out) != refDigest {
		t.Fatal("ResolveWith after QueryEntity differs from Resolve")
	}
}

// The substrate's token blocks — the Table-2 view no resolution reads — are
// the oracle's purged token blocks, materialized on first ask and cached.
func TestSubstrateTokenBlocks(t *testing.T) {
	k1, k2 := skewedKBs(300)
	sub, err := BuildSubstrate(context.Background(), k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	budget := purgeBudget(k1.Len(), k2.Len(), DefaultConfig().MaxBlockFraction)
	want, purged := purge(tokenBlocks(readSide(t, k1), readSide(t, k2)), budget)
	if purged != sub.PurgedBlocks() || budget != sub.PurgeThreshold() || purged == 0 {
		t.Fatalf("the oracle purges %d blocks above %d, the substrate %d above %d; want the same, and some",
			purged, budget, sub.PurgedBlocks(), sub.PurgeThreshold())
	}
	tb := TokenBlocksOf(t, sub)
	if !blocksEqual(kernelBlocks(tb), want) {
		t.Fatal("TokenBlocks differ from the oracle's purged token blocks")
	}
	if TokenBlocksOf(t, sub) != tb {
		t.Fatal("TokenBlocks must cache its materialization")
	}
}

// A ResolveWith whose TopK differs from the substrate's builds a private
// graph: its output equals a fresh Resolve at that TopK, the substrate's own
// graph is neither built nor replaced by it, and the queries and resolutions
// that follow see the substrate's TopK as before.
func TestTopKOverrideBuildsPrivateGraph(t *testing.T) {
	ctx := context.Background()
	k1, k2 := randomPair(700, 80)
	sub, err := BuildSubstrate(ctx, k1, k2, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, wantDefault := resolveDigest(t, k1, k2, Config{Workers: 2})
	_, wantK2 := resolveDigest(t, k1, k2, Config{Workers: 2, TopK: 2})
	if wantK2 == wantDefault {
		t.Fatal("TopK 2 resolves like TopK 15; test is vacuous")
	}
	q := QueryFromEntity(k1, 12)
	wantRows, err := QueryEntity(ctx, sub, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shared := sub.graph.Load()
	for round := 0; round < 2; round++ {
		out, err := ResolveWith(ctx, sub, Config{Workers: 2, TopK: 2})
		if err != nil {
			t.Fatal(err)
		}
		if digest(t, sub, out) != wantK2 {
			t.Fatal("ResolveWith at TopK 2 differs from a fresh Resolve at TopK 2")
		}
	}
	if sub.graph.Load() != shared || sub.graphBuilds.Load() != 1 {
		t.Fatal("a TopK override touched the substrate's shared graph")
	}
	rows, err := QueryEntity(ctx, sub, q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("query rows changed after a TopK override")
	}
	out, err := ResolveWith(ctx, sub, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, sub, out) != wantDefault {
		t.Fatal("ResolveWith at the substrate's TopK differs after a TopK override")
	}
}

// flipCtx reports cancellation from its after-th Err call on: a context
// that gives up at a chosen point inside the work it is handed to.
type flipCtx struct {
	context.Context
	after int32
	calls atomic.Int32
	done  chan struct{}
	once  sync.Once
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) <= c.after {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

// A context cancelled in the middle of the graph build fails the call that
// brought it and nothing else: the substrate keeps no half-built graph, and
// the next caller builds it.
func TestCancelledGraphBuildFailsThatCallOnly(t *testing.T) {
	k1, k2 := skewedKBs(300)
	sub, err := BuildSubstrate(context.Background(), k1, k2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, want := resolveDigest(t, k1, k2, Config{Workers: 1})
	ctx := &flipCtx{Context: context.Background(), after: 4, done: make(chan struct{})}
	if _, err := ResolveWith(ctx, sub, Config{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ResolveWith under a context cancelled mid-build = %v, want context.Canceled", err)
	}
	if ctx.calls.Load() <= ctx.after || sub.graphBuilds.Load() != 0 || sub.graph.Load() != nil {
		t.Fatal("the cancelled build was not abandoned mid-way")
	}
	if err := sub.PrewarmQueries(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrewarmQueries under the cancelled context = %v, want context.Canceled", err)
	}
	out, err := ResolveWith(context.Background(), sub, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, sub, out) != want || sub.graphBuilds.Load() != 1 {
		t.Fatal("the call after a cancelled build did not build the graph and resolve as usual")
	}
}

// A name whose sole carrier names no entity is refused by the first query
// that hits it, and every query after that: a name table from parts checks
// the entries a lookup touches.
func TestDamagedNameCarrierIsRefusedAtFirstUse(t *testing.T) {
	ctx := context.Background()
	w, d := testkb.Figure1()
	sub, err := BuildSubstrate(ctx, w, d, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.ExportGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := sub.Parts()
	names := p.NameTable
	hit := -1
	for i := range names.Keys.Len() {
		if len(names.E1.Row(i)) == 1 && len(names.E2.Row(i)) == 1 {
			hit = i
		}
	}
	if hit < 0 {
		t.Fatal("Figure 1 has no unique shared name; test is vacuous")
	}
	self := names.E1.Row(hit)[0]
	names.E2.Flat = slices.Clone(names.E2.Flat)
	names.E2.Flat[names.E2.Off[hit]] = kb.EntityID(d.Len())
	p.NameTable = names
	damaged, err := SubstrateFromParts(p)
	if err != nil {
		t.Fatalf("a damaged carrier is the first lookup's to find, not the assembly's: %v", err)
	}
	if err := damaged.InstallGraph(g); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		q := QueryFromEntity(w, self)
		if _, err := QueryEntity(ctx, damaged, q, Config{Workers: 1}); !errors.Is(err, kb.ErrCorrupt) {
			t.Fatalf("round %d: QueryEntity = %v, want kb.ErrCorrupt", round, err)
		}
	}
}
