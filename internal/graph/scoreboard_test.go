package graph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

func TestScoreboardAddReset(t *testing.T) {
	b := NewScoreboard(10)
	heap := make([]Edge, 0, 4)
	if row := appendTopK(nil, b, 4, heap); row != nil {
		t.Errorf("empty board row = %v, want nil", row)
	}
	b.Add(3, 0.5)
	b.Add(7, 0.25)
	b.Add(3, 0.25)
	want := []Edge{{To: 3, Weight: 0.75}, {To: 7, Weight: 0.25}}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("row = %v, want %v (accumulated sums)", row, want)
	}
	// Ties order toward the lower ID regardless of touch order.
	b.Add(7, 0.5)
	want = []Edge{{To: 3, Weight: 0.75}, {To: 7, Weight: 0.75}}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("tied row = %v, want %v", row, want)
	}
	b.Reset()
	if row := appendTopK(nil, b, 4, heap); row != nil {
		t.Errorf("row after Reset = %v, want nil", row)
	}
	// The board is fully reusable: stale scores must not survive the reset.
	b.Add(5, 0.125)
	want = []Edge{{To: 5, Weight: 0.125}}
	if row := appendTopK(nil, b, 4, heap); !reflect.DeepEqual(row, want) {
		t.Errorf("row after reuse = %v, want %v", row, want)
	}
}

// appendTopK must select and order exactly the candidates the map-based topK
// selects from identical accumulations, for every k — including heavy
// weight ties, where the unique (weight desc, ID asc) order decides.
func TestAppendTopKMatchesMapTopK(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	board := NewScoreboard(200)
	heap := make([]Edge, 0, 200)
	for trial := 0; trial < 200; trial++ {
		acc := make(map[kb.EntityID]float64)
		// Contributions drawn from a tiny weight alphabet to force ties.
		for add := r.Intn(60); add > 0; add-- {
			to := kb.EntityID(r.Intn(200))
			w := float64(1+r.Intn(4)) / 4
			acc[to] += w
			board.Add(to, w)
		}
		for _, k := range []int{0, 1, 2, 5, 15, 200} {
			want := topK(acc, k)
			got := appendTopK(nil, board, k, heap)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\nboard: %v\nmap:   %v", trial, k, got, want)
			}
		}
		board.Reset()
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
		ix := blocking.NewTokenIndex(parallel.New(2), k1, k2)
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
	ix := blocking.NewTokenIndex(parallel.Sequential(), k1, k2)
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
			adj[i] = append(adj[i], Edge{To: kb.EntityID(r.Intn(n2)), Weight: float64(1+r.Intn(8)) / 8})
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
		flatAdj, flatIn := rowsOf(adj), rowsOf(inOther)
		full := parallel.Span{Lo: 0, Hi: n1}
		want, err := gammaRowsMap(ctx, parallel.Sequential(), full, top, adj, inOther, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(3).Chunked(), parallel.New(8)} {
			got, err := gammaRows(ctx, e, full, top, flatAdj, flatIn, 4, Rows[Edge]{})
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
			part, err := gammaRows(ctx, parallel.New(2).Chunked(), parallel.Span{Lo: lo, Hi: hi}, top, flatAdj, flatIn, 4, Rows[Edge]{})
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

// Committed before/after guard: the scoreboard pass against the retained
// map-based reference on a workload with realistic block skew.
func benchBetaInputs(b *testing.B) (*kb.KB, *kb.KB, *blocking.TokenIndex) {
	b.Helper()
	r := rand.New(rand.NewSource(42))
	k1, k2 := randomTokenKBs(r, 800, 2400, 400)
	ix := blocking.NewTokenIndex(parallel.New(0), k1, k2)
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
	flatAdj, flatIn := rowsOf(adj), rowsOf(inOther)
	b.Run("scoreboard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gammaRows(context.Background(), eng, full, top, flatAdj, flatIn, 15, Rows[Edge]{}); err != nil {
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
