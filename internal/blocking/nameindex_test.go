package blocking

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
	"minoaner/internal/testkb"
)

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

// Figure 1's KBs use separate builders (disjoint schema dictionaries), so
// this pins the Live() accounting against the materialized collection on the
// merged-dictionary translation path (core's oracle tests check its blocks).
func TestNameIndexFigure1(t *testing.T) {
	w, d := testkb.Figure1()
	ctx := context.Background()
	eng := parallel.New(2)
	na1, na2 := nameAttrs(t, eng, w, 2), nameAttrs(t, eng, d, 2)
	ix, err := NewNameIndexLookupsCtx(ctx, eng, stats.NewNameLookup(w, na1), stats.NewNameLookup(d, na2))
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Collection()
	if got.Len() == 0 {
		t.Fatal("no name blocks")
	}
	if ix.Live() != got.Len() {
		t.Errorf("Live = %d, Collection len = %d", ix.Live(), got.Len())
	}
}

// BenchmarkNameBlocksMembers isolates one side's member fill — the counting
// and scatter passes over name ValueIDs — mirroring
// BenchmarkTokenIndexMembers' role for the token index.
func BenchmarkNameBlocksMembers(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	k1, _ := randomNameKBs(r, 5000, true)
	nl := stats.NewNameLookup(k1, []string{"name", "label"})
	n := k1.Schema().Values()
	eng := parallel.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nameMemberFill(context.Background(), eng, nl, nil, n); err != nil {
			b.Fatal(err)
		}
	}
}
