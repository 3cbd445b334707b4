package blocking

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// collectBeta runs the ForEachSharedTokens walk for every entity of one
// side and flattens it into a comparable structure.
func collectBeta(ix *TokenIndex, k *kb.KB, fromE1 bool) [][]float64 {
	out := make([][]float64, k.Len())
	for i := 0; i < k.Len(); i++ {
		var row []float64
		ix.ForEachSharedTokens(k.TokenIDs(kb.EntityID(i)), fromE1, func(w float64, others []kb.EntityID) {
			row = append(row, w*float64(len(others)+1))
		})
		out[i] = row
	}
	return out
}

// A shared interner (identity token space) and two disjoint interners must
// produce identical indexes from the walk's point of view.
func TestTokenIndexSharedVsDisjointDictionaries(t *testing.T) {
	build := func(dict *kb.Interner) (*kb.KB, *kb.KB) {
		mk := func(name string) *kb.Builder {
			if dict != nil {
				return kb.NewBuilderWithInterner(name, dict)
			}
			return kb.NewBuilder(name)
		}
		b1, b2 := mk("A"), mk("B")
		for i := 0; i < 40; i++ {
			e1 := b1.AddEntity(fmt.Sprintf("a:e%d", i))
			e2 := b2.AddEntity(fmt.Sprintf("b:e%d", i))
			b1.AddLiteral(e1, "label", fmt.Sprintf("uniq%d shared%d stopword", i, i%7))
			b2.AddLiteral(e2, "label", fmt.Sprintf("uniq%d shared%d stopword", i, i%7))
		}
		return b1.Build(), b2.Build()
	}
	eng := parallel.New(2)
	k1s, k2s := build(kb.NewInterner())
	k1d, k2d := build(nil)
	if k1s.TokenDict() != k2s.TokenDict() {
		t.Fatal("shared build lost the common dictionary")
	}
	if k1d.TokenDict() == k2d.TokenDict() {
		t.Fatal("disjoint build shares a dictionary")
	}
	ixs := newTokenIndex(t, eng, k1s, k2s)
	ixd := newTokenIndex(t, eng, k1d, k2d)
	if !reflect.DeepEqual(ixs.Collection(), ixd.Collection()) {
		t.Error("collections differ between shared and disjoint dictionaries")
	}
	if !reflect.DeepEqual(collectBeta(ixs, k1s, true), collectBeta(ixd, k1d, true)) {
		t.Error("E1 walks differ between shared and disjoint dictionaries")
	}
	if !reflect.DeepEqual(collectBeta(ixs, k2s, false), collectBeta(ixd, k2d, false)) {
		t.Error("E2 walks differ between shared and disjoint dictionaries")
	}
}

// The index must be identical for any worker count (scatter fill + member
// sort must erase scheduling effects).
func TestTokenIndexDeterministicAcrossWorkers(t *testing.T) {
	dict := kb.NewInterner()
	b1 := kb.NewBuilderWithInterner("A", dict)
	b2 := kb.NewBuilderWithInterner("B", dict)
	for i := 0; i < 300; i++ {
		e1 := b1.AddEntity(fmt.Sprintf("a:%d", i))
		e2 := b2.AddEntity(fmt.Sprintf("b:%d", i))
		label := fmt.Sprintf("uniq%d", i)
		for p := 1; p <= 8; p++ {
			if i%p == 0 {
				label += fmt.Sprintf(" pop%d", p)
			}
		}
		b1.AddLiteral(e1, "label", label)
		b2.AddLiteral(e2, "label", label)
	}
	k1, k2 := b1.Build(), b2.Build()
	ref := newTokenIndex(t, parallel.Sequential(), k1, k2).Collection()
	for _, workers := range []int{2, 7, 16} {
		got := newTokenIndex(t, parallel.New(workers), k1, k2).Collection()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("index differs with %d workers", workers)
		}
	}
}

func TestComparisonBudget(t *testing.T) {
	if got := ComparisonBudget(100, 200, 0.0005); got != 10 {
		t.Errorf("budget = %d, want 10", got)
	}
	if got := ComparisonBudget(10, 10, 0.0001); got != 1 {
		t.Errorf("tiny fraction budget = %d, want clamp to 1", got)
	}
	if got := ComparisonBudget(10, 10, 0); got != 0 {
		t.Errorf("zero fraction budget = %d, want 0 (disabled)", got)
	}
	if got := ComparisonBudget(10, 10, -1); got != 0 {
		t.Errorf("negative fraction budget = %d, want 0 (disabled)", got)
	}
}

// BenchmarkTokenIndexMembers isolates one side's member fill: the
// span-local counting pass and the sorted-by-construction scatter fill of
// the NewTokenIndexCtx path.
func BenchmarkTokenIndexMembers(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.RexaDBLP(), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	k := d.K2 // the big side: 15k entities' worth of token occurrences
	n := k.TokenDict().Len()
	ctx := context.Background()
	eng := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locals, err := slotCounts(ctx, eng, k, nil, n)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := scatter(ctx, eng, k, nil, locals, n); err != nil {
			b.Fatal(err)
		}
	}
}
