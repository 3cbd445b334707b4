package graph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

func TestScoreboardAddReset(t *testing.T) {
	b := NewScoreboard(10)
	heap := make([]cand, 0, 4)
	if row := appendTopK(nil, b, 4, heap); row != nil {
		t.Errorf("empty board row = %v, want nil", row)
	}
	b.Add(3, 0.5)
	b.Add(7, 0.25)
	b.Add(3, 0.25)
	want := []Edge{NewEdge(3, 0.75), NewEdge(7, 0.25)}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("row = %v, want %v (accumulated sums)", row, want)
	}
	// Ties order toward the lower ID regardless of touch order.
	b.Add(7, 0.5)
	want = []Edge{NewEdge(3, 0.75), NewEdge(7, 0.75)}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("tied row = %v, want %v", row, want)
	}
	b.Reset()
	if row := appendTopK(nil, b, 4, heap); row != nil {
		t.Errorf("row after Reset = %v, want nil", row)
	}
	// The board is fully reusable: stale scores must not survive the reset.
	b.Add(5, 0.125)
	want = []Edge{NewEdge(5, 0.125)}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("row after reuse = %v, want %v", row, want)
	}
}

// appendTopK must select and order exactly the candidates the map-based topK
// selects from identical accumulations, for every k — including heavy
// weight ties, where the unique (weight desc, ID asc) order decides. Small
// boards cover the heap's fill phase; boards of 1,000–4,096 candidates
// touched in random order mostly exercise the rejection against the root.
func TestAppendTopKMatchesMapTopK(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const ids = 8192
	board := NewScoreboard(ids)
	heap := make([]cand, 0, ids)
	check := func(trial int, acc map[kb.EntityID]float64) {
		t.Helper()
		for _, k := range []int{0, 1, 2, 5, 15, 200} {
			want := topK(acc, k)
			got := appendTopK(nil, board, k, heap)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d (%d touched):\nboard: %v\nmap:   %v", trial, k, len(acc), got, want)
			}
		}
		board.Reset()
	}
	// Contributions drawn from a tiny weight alphabet to force ties.
	weight := func() float64 { return float64(1+r.Intn(4)) / 4 }
	for trial := 0; trial < 200; trial++ {
		acc := make(map[kb.EntityID]float64)
		for add := r.Intn(60); add > 0; add-- {
			to := kb.EntityID(r.Intn(200))
			w := weight()
			acc[to] += w
			board.Add(to, w)
		}
		check(trial, acc)
	}
	for trial := 0; trial < 20; trial++ {
		acc := make(map[kb.EntityID]float64)
		for _, i := range r.Perm(ids)[:1000+r.Intn(3097)] {
			to := kb.EntityID(i)
			for adds := 1 + r.Intn(3); adds > 0; adds-- {
				w := weight()
				acc[to] += w
				board.Add(to, w)
			}
		}
		check(trial, acc)
	}
}

// Selecting a row is the inner loop of every β and γ pass: it must not
// allocate once the board and the destination have their capacity. A query
// kernel selects into no destination at all and pays for its row once.
func TestAppendRowAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sc := newBoardScratch(500, 15)
	fill := func() {
		for add := 0; add < 300; add++ {
			sc.board.Add(kb.EntityID(r.Intn(500)), float64(1+r.Intn(4))/4)
		}
	}
	dst := make([]Edge, 0, 15)
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		dst = sc.appendRow(dst[:0], 15)
	}); allocs != 0 {
		t.Errorf("appendRow allocates %v times per row, want 0", allocs)
	}
	// Under the race detector slices.Grow allocates the make([]E, n) it
	// appends as well as the grown slice: the compiler folds the two into one
	// allocation only without instrumentation.
	want := 1.0
	if raceEnabled {
		want = 2
	}
	if allocs := testing.AllocsPerRun(100, func() {
		fill()
		dst = sc.appendRow(nil, 15)
	}); allocs != want {
		t.Errorf("appendRow into no destination allocates %v times per row, want %v", allocs, want)
	}
}

// randomTokenKBs builds a KB pair with overlapping random token vocabularies
// (separate dictionaries, exercising the index translation path).
func randomTokenKBs(r *rand.Rand, n1, n2, vocab int) (*kb.KB, *kb.KB) {
	build := func(ns string, n int) *kb.KB {
		b := kb.NewBuilder(ns)
		for i := 0; i < n; i++ {
			u := b.AddEntity(fmt.Sprintf("%s:e%d", ns, i))
			var sb strings.Builder
			for t := 1 + r.Intn(8); t > 0; t-- {
				fmt.Fprintf(&sb, " tok%d", r.Intn(vocab))
			}
			b.AddLiteral(u, "label", sb.String())
		}
		return b.Build()
	}
	return build("s1", n1), build("s2", n2)
}

// The scoreboard β pass must reproduce the retained map-based reference row
// for row — same candidates, same float sums, same order — for any worker
// count and scheduler. Running every entity through ONE worker's reused
// board (workers=1) is also the dirty-board leak detector: a missed reset
// would drag candidates of entity i into entity i+1's row.
func TestBetaRowsScoreboardMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 5; trial++ {
		k1, k2 := randomTokenKBs(r, 40+r.Intn(40), 60+r.Intn(60), 30)
		ix, err := blocking.NewTokenIndexCtx(ctx, parallel.New(2), k1, k2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := betaRowsMap(ctx, parallel.Sequential(), ix, k1, true, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(2).Chunked(), parallel.New(7)} {
			got, err := BetaRowsCtx(ctx, e, ix, k1, k2.Len(), true, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slicesOf(got), want) {
				t.Fatalf("trial %d workers=%d: scoreboard β rows differ from map reference", trial, e.Workers())
			}
		}
		// The reverse direction, for symmetry.
		want2, err := betaRowsMap(ctx, parallel.Sequential(), ix, k2, false, 5)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := BetaRowsCtx(ctx, parallel.Sequential(), ix, k2, k1.Len(), false, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(slicesOf(got2), want2) {
			t.Fatalf("trial %d: reverse-direction β rows differ from map reference", trial)
		}
	}
}

// Identical consecutive entities maximize scratch reuse pressure: every row
// re-touches exactly the candidates of the previous one, so any stale score
// shifts the sums. Rows must still all equal the per-entity-fresh reference.
func TestBetaRowsDirtyBoardWouldBeCaught(t *testing.T) {
	b1 := kb.NewBuilder("d1")
	b2 := kb.NewBuilder("d2")
	for i := 0; i < 50; i++ {
		u := b1.AddEntity(fmt.Sprintf("d1:e%d", i))
		b1.AddLiteral(u, "label", "alpha beta gamma shared")
	}
	for i := 0; i < 20; i++ {
		u := b2.AddEntity(fmt.Sprintf("d2:e%d", i))
		b2.AddLiteral(u, "label", "alpha beta shared distinct"+fmt.Sprint(i%5))
	}
	k1, k2 := b1.Build(), b2.Build()
	ix, err := blocking.NewTokenIndexCtx(context.Background(), parallel.Sequential(), k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := betaRowsMap(context.Background(), parallel.Sequential(), ix, k1, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BetaRowsCtx(context.Background(), parallel.Sequential(), ix, k1, k2.Len(), true, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slicesOf(got), want) {
		t.Fatal("reused scoreboard diverged from fresh-per-entity reference (dirty board leaked)")
	}
	if len(want[0]) == 0 {
		t.Fatal("fixture produced empty rows; test is vacuous")
	}
}

// randomGammaInputs builds synthetic top-neighbor lists, β adjacency and a
// reverse top-neighbor index for one γ side.
func randomGammaInputs(r *rand.Rand, n1, n2 int) (top [][]kb.EntityID, adj [][]Edge, inOther [][]kb.EntityID) {
	top = make([][]kb.EntityID, n1)
	adj = make([][]Edge, n1)
	for i := range top {
		for c := r.Intn(4); c > 0; c-- {
			top[i] = append(top[i], kb.EntityID(r.Intn(n1)))
		}
		for c := r.Intn(5); c > 0; c-- {
			adj[i] = append(adj[i], NewEdge(kb.EntityID(r.Intn(n2)), float64(1+r.Intn(8))/8))
		}
	}
	inOther = make([][]kb.EntityID, n2)
	for j := range inOther {
		for c := r.Intn(4); c > 0; c-- {
			inOther[j] = append(inOther[j], kb.EntityID(r.Intn(n2)))
		}
	}
	return top, adj, inOther
}

// The scoreboard γ pass must reproduce the map reference for any worker
// count, over per-worker scratch reused from row to row.
func TestGammaRowsScoreboardMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n1, n2 := 30+r.Intn(50), 30+r.Intn(50)
		top, adj, inOther := randomGammaInputs(r, n1, n2)
		flatAdj, flatIn := RowsOf(adj), RowsOf(inOther)
		want, err := gammaRowsMap(ctx, parallel.Sequential(), top, adj, inOther, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(3).Chunked(), parallel.New(8)} {
			got, _, err := gammaRows(ctx, e, RowsOf(top), flatAdj, flatIn, 4, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slicesOf(got), want) {
				t.Fatalf("trial %d workers=%d: scoreboard γ rows differ from map reference", trial, e.Workers())
			}
		}
	}
}

// randomGamma1Graph is a graph holding only the inputs of E1-side γ rows,
// random ones from randomGammaInputs.
func randomGamma1Graph(r *rand.Rand, n1, n2, k int) *Graph {
	top, adj, in2 := randomGammaInputs(r, n1, n2)
	return &Graph{Top1: RowsOf(top), Adj1: RowsOf(adj), In2: RowsOf(in2), K: k}
}

// The rows computed for a demand must hold, in every needed row, the row the
// full pass computes, and leave every other row empty — whatever K or worker
// count. Their array holds the needed rows alone: it has room for no more
// than (needed rows) × min(K, n2) edges.
func TestGamma1RowsComputesOnlyNeededRows(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n1, n2 := 20+r.Intn(60), 20+r.Intn(60)
		g := randomGamma1Graph(r, n1, n2, []int{1, 2, 4, 15}[trial%4])
		full, err := g.Gamma1Rows(ctx, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		need := make([]bool, n1)
		needed := 0
		for i := range need {
			if need[i] = r.Intn(3) == 0; need[i] {
				needed++
			}
		}
		e := []*parallel.Engine{seq, parallel.New(2), parallel.New(5)}[trial%3]
		rows, err := g.Gamma1Rows(ctx, e, need)
		if err != nil {
			t.Fatal(err)
		}
		if stride := min(g.K, n2); cap(rows.Flat) > needed*stride {
			t.Fatalf("trial %d workers=%d: the array holds %d edges for %d needed rows of at most %d", trial, e.Workers(), cap(rows.Flat), needed, stride)
		}
		if rows.Len() != n1 {
			t.Fatalf("trial %d: %d rows for %d entities", trial, rows.Len(), n1)
		}
		for i := range n1 {
			want := full.Row(i)
			if !need[i] {
				want = nil
			}
			if got := rows.Row(i); !slices.Equal(got, want) {
				t.Fatalf("trial %d workers=%d row %d (needed %v): got %v, want %v", trial, e.Workers(), i, need[i], got, want)
			}
		}
	}
}

// Committed before/after guard: the scoreboard pass against the retained
// map-based reference on a workload with realistic block skew.
func benchBetaInputs(b *testing.B) (*kb.KB, *kb.KB, *blocking.TokenIndex) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	k1, k2 := randomTokenKBs(r, 800, 2400, 400)
	ix, err := blocking.NewTokenIndexCtx(context.Background(), parallel.New(0), k1, k2)
	if err != nil {
		b.Fatal(err)
	}
	return k1, k2, ix
}

func BenchmarkBetaRows(b *testing.B) {
	k1, k2, ix := benchBetaInputs(b)
	eng := parallel.New(0)
	b.Run("scoreboard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BetaRowsCtx(context.Background(), eng, ix, k2, k1.Len(), false, 15); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := betaRowsMap(context.Background(), eng, ix, k2, false, 15); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGammaRowsStage(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	top, adj, inOther := randomGammaInputs(r, 2000, 2000)
	eng := parallel.New(0)
	flatAdj, flatIn := RowsOf(adj), RowsOf(inOther)
	b.Run("scoreboard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := gammaRows(context.Background(), eng, RowsOf(top), flatAdj, flatIn, 15, nil, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gammaRowsMap(context.Background(), eng, top, adj, inOther, 15); err != nil {
				b.Fatal(err)
			}
		}
	})
}
