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
// count, and concatenating arbitrary span partitions must reproduce the
// full-range pass — the invariant streamed γ1 rows rely on, over reused
// scratch state.
func TestGammaRowsScoreboardMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n1, n2 := 30+r.Intn(50), 30+r.Intn(50)
		top, adj, inOther := randomGammaInputs(r, n1, n2)
		flatAdj, flatIn := RowsOf(adj), RowsOf(inOther)
		full := parallel.Span{Lo: 0, Hi: n1}
		want, err := gammaRowsMap(ctx, parallel.Sequential(), full, top, adj, inOther, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(3).Chunked(), parallel.New(8)} {
			got, _, err := gammaRows(ctx, e, full, RowsOf(top), flatAdj, flatIn, 4, nil, Rows[Edge]{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slicesOf(got), want) {
				t.Fatalf("trial %d workers=%d: scoreboard γ rows differ from map reference", trial, e.Workers())
			}
		}
		// Span concatenation in span order == full range, for a random cut.
		var rows [][]Edge
		for lo := 0; lo < n1; {
			hi := lo + 1 + r.Intn(n1-lo)
			part, _, err := gammaRows(ctx, parallel.New(2).Chunked(), parallel.Span{Lo: lo, Hi: hi}, RowsOf(top), flatAdj, flatIn, 4, nil, Rows[Edge]{}, false)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, slicesOf(part)...)
			lo = hi
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("trial %d: concatenated γ spans differ from full-range pass", trial)
		}
	}
}

// randomGamma1Graph is a graph holding only the inputs of E1-side γ rows,
// random ones from randomGammaInputs.
func randomGamma1Graph(r *rand.Rand, n1, n2, k int) *Graph {
	top, adj, in2 := randomGammaInputs(r, n1, n2)
	return &Graph{Top1: RowsOf(top), Adj1: RowsOf(adj), In2: RowsOf(in2), K: k}
}

// A span computed for a demand must hold, in every needed row, the row the
// full pass computes, and leave every other row empty — whatever K, span
// plan or worker count, and with reused arrays. Its array holds the needed
// rows alone: a fresh one has room for no more than (needed rows) ×
// min(K, n2) edges. A later span of the walk takes over the arrays and the
// workers' scoreboards of the span before it, growing the array only when
// it needs more room.
func TestGamma1SpanComputesOnlyNeededRows(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n1, n2 := 20+r.Intn(60), 20+r.Intn(60)
		g := randomGamma1Graph(r, n1, n2, []int{1, 2, 4, 15}[trial%4])
		full, err := g.Gamma1Span(ctx, seq, parallel.Span{Lo: 0, Hi: n1}, nil, Rows[Edge]{})
		if err != nil {
			t.Fatal(err)
		}
		need := make([]bool, n1)
		for i := range need {
			need[i] = r.Intn(3) == 0
		}
		stride := min(g.K, n2)
		e := []*parallel.Engine{seq, parallel.New(2), parallel.New(5)}[trial%3]
		var rows Rows[Edge]
		for si, s := range parallel.New(1 + r.Intn(4)).Partitions(n1) {
			needed := 0
			for _, ok := range need[s.Lo:s.Hi] {
				if ok {
					needed++
				}
			}
			fresh, err := g.Gamma1Span(ctx, e, s, need, Rows[Edge]{})
			if err != nil {
				t.Fatal(err)
			}
			if cap(fresh.Flat) > needed*stride {
				t.Fatalf("trial %d span %d: a fresh array holds %d edges for %d needed rows of at most %d", trial, si, cap(fresh.Flat), needed, stride)
			}
			prev := rows
			if rows, err = g.Gamma1Span(ctx, e, s, need, rows); err != nil {
				t.Fatal(err)
			}
			if si > 0 {
				if rows.walk != prev.walk || len(rows.walk.boards) > e.Workers() {
					t.Fatalf("trial %d span %d: the walk's scoreboards were not reused (%d boards at %d workers)", trial, si, len(rows.walk.boards), e.Workers())
				}
				if fits := cap(prev.Flat) >= needed*stride; fits && needed > 0 && &rows.Flat[:1][0] != &prev.Flat[:1][0] {
					t.Fatalf("trial %d span %d: an array with room for %d edges was not reused for %d rows", trial, si, cap(prev.Flat), needed)
				}
				if &rows.Off[0] != &prev.Off[0] && cap(prev.Off) >= s.Len()+1 {
					t.Fatalf("trial %d span %d: the offset table was not reused", trial, si)
				}
			}
			for i := s.Lo; i < s.Hi; i++ {
				want := full.Row(i)
				if !need[i] {
					want = nil
				}
				if got := rows.Row(i - s.Lo); !slices.Equal(got, want) {
					t.Fatalf("trial %d row %d (needed %v): got %v, want %v", trial, i, need[i], got, want)
				}
			}
		}
	}
}

// Streaming every span of a resolve through one reused row set must
// allocate no more when half the rows are not needed than when all are: a
// half-empty span must not be trimmed to its size, or the next span could
// not reuse it.
func TestGamma1SpanDemandKeepsReuse(t *testing.T) {
	g := randomGamma1Graph(rand.New(rand.NewSource(31)), 2000, 600, 4)
	spans := parallel.New(4).Partitions(g.Top1.Len())
	half := make([]bool, g.Top1.Len())
	for i := range half {
		half[i] = i%2 == 0
	}
	stream := func(need []bool) float64 {
		return testing.AllocsPerRun(10, func() {
			var rows Rows[Edge]
			for _, s := range spans {
				var err error
				if rows, err = g.Gamma1Span(context.Background(), seq, s, need, rows); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if all, demand := stream(nil), stream(half); demand > all {
		t.Errorf("streaming with half the rows needed allocates %v times, with all rows %v", demand, all)
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
	full := parallel.Span{Lo: 0, Hi: len(top)}
	flatAdj, flatIn := RowsOf(adj), RowsOf(inOther)
	b.Run("scoreboard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := gammaRows(context.Background(), eng, full, RowsOf(top), flatAdj, flatIn, 15, nil, Rows[Edge]{}, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gammaRowsMap(context.Background(), eng, full, top, adj, inOther, 15); err != nil {
				b.Fatal(err)
			}
		}
	})
}
