package blocking

import (
	"context"
	"sort"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

// newTokenIndex builds the unpurged token index of a KB pair.
func newTokenIndex(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB) *TokenIndex {
	t.Helper()
	ix, err := NewTokenIndexCtx(context.Background(), e, k1, k2)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// nameAttrs discovers a KB's top-k name attributes.
func nameAttrs(t testing.TB, e *parallel.Engine, k *kb.KB, topK int) []string {
	t.Helper()
	attrs, err := stats.NameAttributesCtx(context.Background(), e, k, topK)
	if err != nil {
		t.Fatal(err)
	}
	return attrs
}

// nameBlocks builds the name-block collection of a KB pair under the given
// name attributes.
func nameBlocks(t testing.TB, e *parallel.Engine, k1, k2 *kb.KB, na1, na2 []string) *Collection {
	t.Helper()
	ix, err := NewNameIndexLookupsCtx(context.Background(), e, stats.NewNameLookup(k1, na1), stats.NewNameLookup(k2, na2))
	if err != nil {
		t.Fatal(err)
	}
	return ix.Collection()
}

func figure1Blocks(t *testing.T) (*kb.KB, *kb.KB, *Collection) {
	t.Helper()
	w, d := testkb.Figure1()
	return w, d, newTokenIndex(t, seq, w, d).Collection()
}

func TestTokenBlocksBasics(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ix := NewIndex(blocks)
	// "lake" appears in one entity on each side.
	b := ix.Lookup("lake")
	if b == nil {
		t.Fatal(`no "lake" block`)
	}
	if len(b.E1) != 1 || len(b.E2) != 1 {
		t.Fatalf(`"lake" block = %d×%d, want 1×1`, len(b.E1), len(b.E2))
	}
	if b.E1[0] != w.Lookup("w:JohnLakeA") || b.E2[0] != d.Lookup("d:JonnyLake") {
		t.Error("lake block holds wrong entities")
	}
	// Tokens present on only one side produce no block.
	if ix.Lookup("michelin") != nil {
		t.Error(`"michelin" exists only in Wikidata; block must be dropped`)
	}
	// Keys sorted.
	if !sort.SliceIsSorted(blocks.Blocks, func(i, j int) bool {
		return blocks.Blocks[i].Key < blocks.Blocks[j].Key
	}) {
		t.Error("blocks not sorted by key")
	}
}

// Token blocking completeness (Def. 3.1 condition ii): any cross-KB pair
// sharing a token must co-occur in that token's block.
func TestTokenBlocksComplete(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ix := NewIndex(blocks)
	for i := 0; i < w.Len(); i++ {
		for j := 0; j < d.Len(); j++ {
			di, dj := w.Entity(kb.EntityID(i)), d.Entity(kb.EntityID(j))
			shared := sharedToken(di.Tokens(), dj.Tokens())
			got := ix.CoOccur(di.Tokens(), kb.EntityID(i), kb.EntityID(j))
			if (shared != "") != got {
				t.Fatalf("pair (%s,%s): shared=%q but CoOccur=%v", di.URI, dj.URI, shared, got)
			}
		}
	}
}

func sharedToken(a, b []string) string {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i]
		}
	}
	return ""
}

// EF equivalence: |b1|,|b2| of a token block equal the per-KB entity
// frequencies, which is what lets Algorithm 1 derive valueSim from blocks.
func TestBlockSizesEqualEF(t *testing.T) {
	w, d, blocks := figure1Blocks(t)
	ef1, err := stats.BuildEFCtx(context.Background(), seq, w)
	if err != nil {
		t.Fatal(err)
	}
	ef2, err := stats.BuildEFCtx(context.Background(), seq, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks.Blocks {
		if len(b.E1) != ef1.EF(b.Key) || len(b.E2) != ef2.EF(b.Key) {
			t.Fatalf("block %q sizes %d×%d != EF %d×%d",
				b.Key, len(b.E1), len(b.E2), ef1.EF(b.Key), ef2.EF(b.Key))
		}
	}
}

func TestNameBlocks(t *testing.T) {
	w, d := testkb.Figure1()
	nb := nameBlocks(t, seq, w, d, nameAttrs(t, seq, w, 2), nameAttrs(t, seq, d, 2))
	ix := NewIndex(nb)
	b := ix.Lookup("j lake")
	if b == nil {
		t.Fatalf(`no "j lake" name block; blocks: %v`, keysOf(nb))
	}
	if b.Comparisons() != 1 {
		t.Fatalf(`"j lake" block = %d comparisons, want 1 (unique name)`, b.Comparisons())
	}
}

func keysOf(c *Collection) []string {
	var ks []string
	for _, b := range c.Blocks {
		ks = append(ks, b.Key)
	}
	return ks
}

func TestParallelDeterminism(t *testing.T) {
	w, d := testkb.Figure1()
	ref := newTokenIndex(t, seq, w, d).Collection()
	for _, workers := range []int{2, 4, 8} {
		got := newTokenIndex(t, parallel.New(workers), w, d).Collection()
		if len(got.Blocks) != len(ref.Blocks) {
			t.Fatalf("workers=%d: %d blocks, want %d", workers, len(got.Blocks), len(ref.Blocks))
		}
		for i := range ref.Blocks {
			if got.Blocks[i].Key != ref.Blocks[i].Key ||
				got.Blocks[i].Comparisons() != ref.Blocks[i].Comparisons() {
				t.Fatalf("workers=%d: block %d differs", workers, i)
			}
		}
	}
}

func TestIndexCoOccur(t *testing.T) {
	c := &Collection{Blocks: []Block{
		{Key: "x", E1: []kb.EntityID{1, 3, 5}, E2: []kb.EntityID{2, 4}},
	}}
	ix := NewIndex(c)
	if !ix.CoOccur([]string{"x"}, 3, 4) {
		t.Error("CoOccur(3,4) via x = false, want true")
	}
	if ix.CoOccur([]string{"x"}, 2, 4) {
		t.Error("CoOccur(2,4): 2 not in E1 side")
	}
	if ix.CoOccur([]string{"missing"}, 1, 2) {
		t.Error("CoOccur via missing key")
	}
	if ix.Lookup("x") == nil || ix.Lookup("y") != nil {
		t.Error("Lookup")
	}
}
