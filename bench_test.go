package minoaner

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§6). One benchmark per artifact:
//
//	BenchmarkTable1DatasetStats           Table 1  — dataset statistics
//	BenchmarkTable2BlockStats             Table 2  — block statistics
//	BenchmarkTable3Comparison             Table 3  — MinoanER vs baselines
//	BenchmarkTable4MatchingRules          Table 4  — per-rule evaluation
//	BenchmarkFigure2SimilarityDistribution Figure 2 — value/neighbor similarity of matches
//	BenchmarkFigure5Sensitivity           Figure 5 — parameter sensitivity
//	BenchmarkFigure6Scalability           Figure 6 — speedup vs workers
//
// plus per-dataset pipeline benchmarks and ablation benchmarks for the
// design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use scaled-down presets (benchScale) so a full -bench=. pass
// stays in the minutes; `go run ./cmd/experiments -all` regenerates the
// artifacts at full preset scale and prints the formatted tables.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/experiments"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/snapshot"
	"minoaner/internal/stats"
)

// benchScale shrinks the presets for the table/figure benchmarks.
const benchScale = 0.25

var (
	suiteOnce sync.Once
	suiteInst *experiments.Suite
)

// benchSuite returns a shared, pre-generated suite so the timed loop
// measures experiment computation, not dataset generation.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		s, err := experiments.NewSuite(experiments.Options{ScaleFactor: benchScale})
		if err != nil {
			panic(err)
		}
		for _, name := range s.Names() {
			if _, err := s.Dataset(name); err != nil {
				panic(err)
			}
		}
		suiteInst = s
	})
	return suiteInst
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkTable2BlockStats(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Recall < 0.9 {
				b.Fatalf("%s blocking recall %v below paper shape", r.Dataset, r.Recall)
			}
		}
	}
}

func BenchmarkTable3Comparison(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	var minoanF1 float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "MinoanER" && r.Dataset == "BBCmusic-DBpedia" {
				minoanF1 = r.Metrics.F1
			}
		}
	}
	b.ReportMetric(100*minoanF1, "F1(BBC)%")
}

func BenchmarkTable4MatchingRules(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2SimilarityDistribution(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure5Sensitivity(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Scalability(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
	}
}

// Per-dataset end-to-end pipeline benchmarks (the running times behind
// Figure 6 at full worker count).

func benchPipeline(b *testing.B, profile datagen.Profile, scale float64) {
	d, err := datagen.Generate(datagen.Scale(profile, scale))
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		f1 = eval.Evaluate(pairsOf(out), d.GT).F1
	}
	b.ReportMetric(100*f1, "F1%")
}

func pairsOf(out *core.Output) []eval.Pair {
	ps := make([]eval.Pair, len(out.Matches))
	for i, m := range out.Matches {
		ps[i] = m.Pair
	}
	return ps
}

func BenchmarkPipelineRestaurant(b *testing.B) { benchPipeline(b, datagen.Restaurant(), 1.0) }
func BenchmarkPipelineRexaDBLP(b *testing.B)   { benchPipeline(b, datagen.RexaDBLP(), 0.5) }
func BenchmarkPipelineBBCmusic(b *testing.B)   { benchPipeline(b, datagen.BBCMusicDBpedia(), 0.5) }
func BenchmarkPipelineYAGOIMDb(b *testing.B)   { benchPipeline(b, datagen.YAGOIMDb(), 0.5) }

// Component benchmarks: blocking, graph construction, matching — the three
// synchronization stages of Figure 4.

func benchComponents() (*datagen.Dataset, graph.Input, *graph.Graph) {
	d, err := datagen.Generate(datagen.Scale(datagen.YAGOIMDb(), 0.25))
	if err != nil {
		panic(err)
	}
	eng := parallel.New(0)
	in := graph.InputFor(eng, d.K1, d.K2, 2, 15, 3)
	budget := blocking.ComparisonBudget(d.K1.Len(), d.K2.Len(), 0.0005)
	in.TokenIndex, _ = in.TokenIndex.PurgeAbove(budget)
	g, _, err := graph.BuildTimedCtx(context.Background(), eng, in)
	if err != nil {
		panic(err)
	}
	return d, in, g
}

func BenchmarkStageTokenBlocking(b *testing.B) {
	d, _, _ := benchComponents()
	eng := parallel.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := blocking.NewTokenIndexCtx(context.Background(), eng, d.K1, d.K2)
		if err != nil {
			b.Fatal(err)
		}
		if c := ix.Collection(); c.Len() == 0 {
			b.Fatal("no blocks")
		}
	}
}

// BenchmarkNameBlocks times name blocking: the NameIndex path (CSR counting
// pass + scatter fill over interned ValueIDs) and its collection.
// Allocation counts are part of the guard — the path must stay free of
// per-name string and map-cell churn.
func BenchmarkNameBlocks(b *testing.B) {
	d := benchStatsKB(b)
	eng := parallel.New(0)
	ctx := context.Background()
	na1, err := stats.NameAttributesCtx(ctx, eng, d.K1, 2)
	if err != nil {
		b.Fatal(err)
	}
	na2, err := stats.NameAttributesCtx(ctx, eng, d.K2, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := blocking.NewNameIndexLookupsCtx(ctx, eng, stats.NewNameLookup(d.K1, na1), stats.NewNameLookup(d.K2, na2))
		if err != nil {
			b.Fatal(err)
		}
		if ix.Collection().Len() == 0 {
			b.Fatal("no name blocks")
		}
	}
}

func BenchmarkStageGraphConstruction(b *testing.B) {
	_, in, _ := benchComponents()
	eng := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := graph.BuildTimedCtx(context.Background(), eng, in)
		if err != nil {
			b.Fatal(err)
		}
		if g.Edges() == 0 {
			b.Fatal("no edges")
		}
	}
}

// yagoSubstrate builds the substrate of the full YAGO-IMDb preset: the pair
// the two allocation guards below run on.
func yagoSubstrate(b *testing.B) *core.Substrate {
	b.Helper()
	d, err := datagen.Generate(datagen.YAGOIMDb())
	if err != nil {
		b.Fatal(err)
	}
	sub, err := core.BuildSubstrate(context.Background(), d.K1, d.K2, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return sub
}

// BenchmarkGraphBuild guards what building the whole graph allocates:
// allocs/op counts a handful per scheduling span, not one per row, and B/op
// stays near the size of the row sets themselves.
func BenchmarkGraphBuild(b *testing.B) {
	sub := yagoSubstrate(b)
	top1, top2 := sub.TopNeighbors()
	ix, err := sub.TokenIndex(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	nameBlocks, err := sub.NameBlocks()
	if err != nil {
		b.Fatal(err)
	}
	in := graph.Input{
		K1: sub.K1(), K2: sub.K2(), NameBlocks: nameBlocks, TokenIndex: ix,
		Top1: top1, Top2: top2, K: sub.Config().TopK,
	}
	eng := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := graph.BuildTimedCtx(context.Background(), eng, in)
		if err != nil {
			b.Fatal(err)
		}
		if g.Edges() == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkSnapshotWrite guards what writing a snapshot allocates: with the
// graph built beforehand, B/op is what has to be derived — frozen
// dictionaries and the per-description KB tables — not a copy of the file.
func BenchmarkSnapshotWrite(b *testing.B) {
	sub := yagoSubstrate(b)
	if err := sub.PrewarmQueries(context.Background()); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "pair.snap")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snapshot.WriteSubstrateFile(path, sub); err != nil {
			b.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
}

// BenchmarkBuildBeta guards the scoreboard β pass in isolation: the heavy
// direction (the larger KB against the E1 candidate space) over the purged
// token index, K=15. Allocation counts are part of the guard — the
// per-worker scoreboard and per-span row buffers leave a handful of
// allocations per span.
func BenchmarkBuildBeta(b *testing.B) {
	d, in, _ := benchComponents()
	eng := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := graph.BetaRowsCtx(context.Background(), eng, in.TokenIndex, d.K2, d.K1.Len(), false, in.K)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() != d.K2.Len() {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkGammaRows guards the scoreboard γ pass in isolation: E1-side
// neighbor propagation over the merged β adjacency and E2's reverse
// top-neighbor index, K=15. "all" computes every row; "every-other" asks for
// every second row and skips the rest, the form a batch resolve uses for the
// rows its rules cannot read.
func BenchmarkGammaRows(b *testing.B) {
	_, in, g := benchComponents()
	eng := parallel.New(0)
	n1 := len(in.Top1)
	everyOther := make([]bool, n1)
	for i := range everyOther {
		everyOther[i] = i%2 == 0
	}
	for _, c := range []struct {
		name string
		need []bool
	}{{"all", nil}, {"every-other", everyOther}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := g.Gamma1Rows(context.Background(), eng, c.need)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Len() != n1 {
					b.Fatal("wrong row count")
				}
			}
		})
	}
}

func BenchmarkStageMatching(b *testing.B) {
	d, _, g := benchComponents()
	eng := parallel.New(0)
	cfg := matching.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := matching.RunCtx(context.Background(), eng, g, d.K1, d.K2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Matches) == 0 {
			b.Fatal("no matches")
		}
	}
}

// Statistics sub-stage benchmarks — the §4.1 pre-processing passes the
// columnar predicate/attribute substrate keeps as fast as blocking. Each is
// a committed guard for one flat counting pass: relation importances,
// attribute importances, top-neighbor extraction and the in-neighbor
// reversal.

func benchStatsKB(b *testing.B) *datagen.Dataset {
	b.Helper()
	d, err := datagen.Generate(datagen.Scale(datagen.RexaDBLP(), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkStatisticsRelationImportances(b *testing.B) {
	d := benchStatsKB(b)
	eng := parallel.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri, err := stats.RelationImportancesCtx(context.Background(), eng, d.K2)
		if err != nil {
			b.Fatal(err)
		}
		if len(ri) == 0 {
			b.Fatal("no relation stats")
		}
	}
}

func BenchmarkStatisticsAttributeImportances(b *testing.B) {
	d := benchStatsKB(b)
	eng := parallel.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as, err := stats.AttributeImportancesCtx(context.Background(), eng, d.K2)
		if err != nil {
			b.Fatal(err)
		}
		if len(as) == 0 {
			b.Fatal("no attribute stats")
		}
	}
}

func BenchmarkStatisticsTopNeighbors(b *testing.B) {
	d := benchStatsKB(b)
	eng := parallel.New(0)
	ri, err := stats.RelationImportancesCtx(context.Background(), eng, d.K2)
	if err != nil {
		b.Fatal(err)
	}
	ranks := stats.RelationRanks(d.K2, ri)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := stats.TopNeighborsRanksCtx(context.Background(), eng, d.K2, ranks, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(top) != d.K2.Len() {
			b.Fatal("wrong row count")
		}
	}
}

func BenchmarkStatisticsTopInNeighbors(b *testing.B) {
	d := benchStatsKB(b)
	eng := parallel.New(0)
	ri, err := stats.RelationImportancesCtx(context.Background(), eng, d.K2)
	if err != nil {
		b.Fatal(err)
	}
	ranks := stats.RelationRanks(d.K2, ri)
	nested, err := stats.TopNeighborsRanksCtx(context.Background(), eng, d.K2, ranks, 3)
	if err != nil {
		b.Fatal(err)
	}
	top := graph.RowsOf(nested)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if in := graph.TopInNeighbors(top); in.Len() != top.Len() {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkQueryEntity guards the per-entity query path: one QueryEntity
// call per iteration against a prewarmed substrate, cycling through E1 — the
// "build once, query many" latency whose percentiles the repository benchmark
// reports as core.query_p50_us and core.query_p99_us. Allocations are part of
// the guard: each query should only pay for its own candidate rows, never
// for substrate state.
func BenchmarkQueryEntity(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.BBCMusicDBpedia(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	sub, err := core.BuildSubstrate(ctx, d.K1, d.K2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.PrewarmQueries(ctx); err != nil {
		b.Fatal(err)
	}
	queries := make([]core.EntityQuery, d.K1.Len())
	for i := range queries {
		queries[i] = core.QueryFromEntity(d.K1, kb.EntityID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.QueryEntity(ctx, sub, queries[i%len(queries)], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryReplay is BenchmarkQueryEntity's replays answered the way
// the server and the CLI answer a bare E1 URI: core.ReplayEntity reads each
// entity's stored α and β rows and top-neighbor list from the graph and
// computes only its γ row, where QueryEntity rebuilds all of them from the
// entity's statements.
func BenchmarkQueryReplay(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.BBCMusicDBpedia(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sub, err := core.BuildSubstrate(ctx, d.K1, d.K2, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.PrewarmQueries(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReplayEntity(ctx, sub, kb.EntityID(i%d.K1.Len()), core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks for the design choices called out in DESIGN.md §6.

// BenchmarkAblationPurging compares effectiveness and cost with and without
// Block Purging: without it, stop-word blocks dominate the β computation.
func BenchmarkAblationPurging(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 1.0))
	if err != nil {
		b.Fatal(err)
	}
	for _, purge := range []struct {
		name string
		frac float64
	}{{"with", 0.0005}, {"without", core.NoBlockPurging}} {
		b.Run(purge.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MaxBlockFraction = purge.frac
			var f1 float64
			for i := 0; i < b.N; i++ {
				out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
				if err != nil {
					b.Fatal(err)
				}
				f1 = eval.Evaluate(pairsOf(out), d.GT).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkAblationK sweeps the pruning parameter K, showing the cost of
// larger candidate lists (the paper's Figure 5 shows F1 is flat in K).
func BenchmarkAblationK(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.BBCMusicDBpedia(), 0.25))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{5, 15, 25} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.TopK = k
			var f1 float64
			for i := 0; i < b.N; i++ {
				out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
				if err != nil {
					b.Fatal(err)
				}
				f1 = eval.Evaluate(pairsOf(out), d.GT).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkAblationWorkers measures the raw pipeline speedup (Figure 6's
// mechanism) at 1, 2 and all workers.
func BenchmarkAblationWorkers(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.YAGOIMDb(), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
