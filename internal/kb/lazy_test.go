package kb_test

import (
	"context"
	"path/filepath"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// A warm batch run — open a snapshot, resolve, list the matches by URI —
// needs no Description: the graph is installed, matching reads only it, and
// KB.URI answers from the frozen URI table. The lazy fill of 10⁵
// descriptions must stay unbuilt until something asks for one.
func TestWarmBatchLeavesDescriptionsUnbuilt(t *testing.T) {
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	built, err := core.BuildSubstrate(ctx, d.K1, d.K2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !kb.DescriptionsBuilt(built.K1()) {
		t.Fatal("a built KB always holds its descriptions")
	}
	path := filepath.Join(t.TempDir(), "pair.snap")
	if err := snapshot.WriteSubstrateFile(path, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.OpenSubstrate(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	sub := loaded.Substrate()
	out, err := core.ResolveWith(ctx, sub, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) == 0 {
		t.Fatal("no matches; test is vacuous")
	}
	for _, m := range out.Matches {
		if sub.K1().URI(m.Pair.E1) != d.K1.Entity(m.Pair.E1).URI || sub.K2().URI(m.Pair.E2) != d.K2.Entity(m.Pair.E2).URI {
			t.Fatalf("match %v lists other URIs than the built pair", m.Pair)
		}
	}
	if kb.DescriptionsBuilt(sub.K1()) || kb.DescriptionsBuilt(sub.K2()) {
		t.Fatal("resolving and listing URIs materialized the lazy descriptions")
	}
	if sub.K1().Entity(0).URI != d.K1.Entity(0).URI || !kb.DescriptionsBuilt(sub.K1()) {
		t.Fatal("asking for a Description must build them")
	}
}
