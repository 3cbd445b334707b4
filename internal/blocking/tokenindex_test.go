package blocking

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
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

// The index's Collection must equal the historical grouped-and-sorted
// blocking output exactly — same keys, same order, same members — as the
// retained string-keyed buildCollection groups it.
func TestTokenIndexCollectionMatchesTokenBlocks(t *testing.T) {
	w, d := testkb.Figure1() // separate dictionaries → translation path
	eng := parallel.New(2)
	ix := newTokenIndex(t, eng, w, d)
	got := ix.Collection()
	if got.Len() == 0 {
		t.Fatal("no token blocks")
	}
	if ix.Live() != got.Len() {
		t.Errorf("Live = %d, Collection len = %d", ix.Live(), got.Len())
	}
	tokens := func(k *kb.KB) func(int, func(string)) {
		return func(i int, yield func(string)) {
			for _, tid := range k.TokenIDs(kb.EntityID(i)) {
				yield(k.TokenDict().TokenString(tid))
			}
		}
	}
	want, err := buildCollection(context.Background(), eng, w, d, tokens(w), tokens(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Collection() and the string-grouped reference disagree")
	}
	for i := 1; i < len(got.Blocks); i++ {
		if got.Blocks[i-1].Key >= got.Blocks[i].Key {
			t.Fatalf("blocks unsorted: %q before %q", got.Blocks[i-1].Key, got.Blocks[i].Key)
		}
	}
	for _, b := range got.Blocks {
		if len(b.E1) == 0 || len(b.E2) == 0 {
			t.Fatalf("single-sided block %q survived", b.Key)
		}
	}
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

// PurgeAbove on the index must agree with PurgeAbove on the collection and
// leave the receiver untouched.
func TestTokenIndexPurgeAboveMatchesCollectionPurge(t *testing.T) {
	w, d := testkb.Figure1()
	ix := newTokenIndex(t, parallel.Sequential(), w, d)
	full := ix.Collection()
	const threshold = 1 // keep only 1×1 blocks
	purgedIx, n := ix.PurgeAbove(threshold)
	purgedCol, n2 := PurgeAbove(full, threshold)
	if n != n2 {
		t.Errorf("purged counts differ: index %d vs collection %d", n, n2)
	}
	if !reflect.DeepEqual(purgedIx.Collection(), purgedCol) {
		t.Error("purged index collection differs from purged collection")
	}
	if ix.Live() != full.Len() {
		t.Error("PurgeAbove mutated the receiver")
	}
	if keep, n := ix.PurgeAbove(0); keep != ix || n != 0 {
		t.Error("non-positive threshold must be a no-op view")
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

// The local-count/deterministic-fill member pass must reproduce the atomic
// reference exactly — same offsets, same (sorted) member arrays — for any
// worker count and either scheduler.
func TestMemberFillStrategiesAgree(t *testing.T) {
	w, d := testkb.Figure1()
	joint := kb.NewInterner()
	for _, k := range []*kb.KB{w, d} {
		t1 := make([]int32, 0)
		if dict := k.TokenDict(); dict != nil {
			for id := 0; id < dict.Len(); id++ {
				t1 = append(t1, int32(joint.Intern(dict.TokenString(kb.TokenID(id)))))
			}
		}
		n := joint.Len()
		for _, e := range []*parallel.Engine{parallel.Sequential(), parallel.New(3), parallel.New(7).Chunked()} {
			mem, off, err := memberFill(t.Context(), e, k, t1, n)
			if err != nil {
				t.Fatal(err)
			}
			refMem, refOff, err := memberFillAtomic(t.Context(), e, k, t1, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(off, refOff) {
				t.Fatalf("workers=%d: offsets differ", e.Workers())
			}
			if !reflect.DeepEqual(mem, refMem) {
				t.Fatalf("workers=%d: member arrays differ\nlocal:  %v\natomic: %v", e.Workers(), mem, refMem)
			}
		}
	}
}

// BenchmarkTokenIndexMembers compares the member-fill pass before and after
// the per-worker-local rewrite: "atomic" is the shared-array variant with
// one atomic RMW per token occurrence plus the per-slot sort it needs,
// "local" the span-local counts merged in span order with a sorted-by-
// construction scatter fill (the NewTokenIndexCtx path).
func BenchmarkTokenIndexMembers(b *testing.B) {
	d, err := datagen.Generate(datagen.Scale(datagen.RexaDBLP(), 0.5))
	if err != nil {
		b.Fatal(err)
	}
	k := d.K2 // the big side: 15k entities' worth of token occurrences
	n := k.TokenDict().Len()
	eng := parallel.New(0)
	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := memberFill(context.Background(), eng, k, nil, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("atomic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := memberFillAtomic(context.Background(), eng, k, nil, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// memberFill builds one side's CSR member array over n token slots, with
// every occurrence's member: the counting pass and the scatter fill of the
// index, kept as the side the agreement test and BenchmarkTokenIndexMembers
// compare memberFillAtomic with.
func memberFill(ctx context.Context, e *parallel.Engine, k *kb.KB, t []int32, n int) ([]kb.EntityID, []int32, error) {
	locals, err := slotCounts(ctx, e, k, t, n)
	if err != nil {
		return nil, nil, err
	}
	return scatter(ctx, e, k, t, locals, n)
}
