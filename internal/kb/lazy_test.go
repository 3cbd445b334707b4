package kb_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// writePair writes a generated pair as e1.nt and e2.nt under dir and returns
// their paths.
func writePair(t *testing.T, d *datagen.Dataset, dir string) (string, string) {
	t.Helper()
	var paths [2]string
	for i, k := range []*kb.KB{d.K1, d.K2} {
		paths[i] = filepath.Join(dir, fmt.Sprintf("e%d.nt", i+1))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := kb.WriteNTriples(f, k); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths[0], paths[1]
}

// The CLI's cold path — load the pair, build the substrate, resolve, save a
// snapshot — reads tokens, columns and URIs only: no step may make the
// Description array of either KB.
func TestPipelineLeavesDescriptionsUnbuilt(t *testing.T) {
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e1, e2 := writePair(t, d, dir)
	ctx := context.Background()
	k1, k2, _, err := kb.LoadPair(ctx, e1, e2, "nt", false)
	if err != nil {
		t.Fatal(err)
	}
	unbuilt := func(step string) {
		t.Helper()
		if kb.DescriptionsBuilt(k1) || kb.DescriptionsBuilt(k2) {
			t.Fatalf("%s made the descriptions", step)
		}
	}
	unbuilt("LoadPair")
	sub, err := core.BuildSubstrate(ctx, k1, k2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	unbuilt("BuildSubstrate")
	out, err := core.ResolveWith(ctx, sub, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) == 0 {
		t.Fatal("no matches; test is vacuous")
	}
	unbuilt("ResolveWith")
	if err := snapshot.WriteSubstrateFile(filepath.Join(dir, "pair.snap"), sub); err != nil {
		t.Fatal(err)
	}
	unbuilt("WriteSubstrateFile")
	if k1.Entity(0).URI != k1.URI(0) || !kb.DescriptionsBuilt(k1) {
		t.Fatal("asking for a Description must build them")
	}
}

// A warm batch run — open a snapshot, resolve, list the matches by URI —
// needs no Description either: the graph is installed, matching reads only
// it, and KB.URI answers from the frozen URI table. The lazy fill of 10⁵
// descriptions must stay unbuilt until something asks for one, on the built
// KBs as on the opened ones.
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
	if kb.DescriptionsBuilt(built.K1()) || kb.DescriptionsBuilt(built.K2()) {
		t.Fatal("building a KB and its substrate made the descriptions")
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

// descriptionDigest hashes every description of k as Entity returns it:
// URI, Attrs and Relations in statement order, and token strings.
func descriptionDigest(k *kb.KB) string {
	h := sha256.New()
	for i := 0; i < k.Len(); i++ {
		d := k.Entity(kb.EntityID(i))
		fmt.Fprintf(h, "%q\n", d.URI)
		for _, av := range d.Attrs {
			fmt.Fprintf(h, "a %q %q\n", av.Attribute, av.Value)
		}
		for _, r := range d.Relations {
			fmt.Fprintf(h, "r %q %d\n", r.Predicate, r.Object)
		}
		fmt.Fprintf(h, "t %q\n", d.Tokens())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Entity returns, for every entity of the four presets at ×0.1, the
// descriptions a KB held as a stored array before they were made lazily from
// its statement tables (the pins), whether the KB was built by hand, loaded
// from N-Triples or opened from a snapshot.
func TestDescriptionsUnchanged(t *testing.T) {
	pinned := map[string][2]string{
		"Restaurant":       {"83045402d7cd8432", "d51548defd1e284a"},
		"Rexa-DBLP":        {"33341ed5b793d601", "40f6911d55c2494a"},
		"BBCmusic-DBpedia": {"56e6ba099281a29a", "89ef0fe154e491a4"},
		"YAGO-IMDb":        {"f43153074f34e1b7", "c746997bab80e5ce"},
	}
	ctx := context.Background()
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		e1, e2 := writePair(t, d, dir)
		k1, k2, _, err := kb.LoadPair(ctx, e1, e2, "nt", false)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := core.BuildSubstrate(ctx, k1, k2, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "pair.snap")
		if err := snapshot.WriteSubstrateFile(path, sub); err != nil {
			t.Fatal(err)
		}
		loaded, err := snapshot.OpenSubstrate(path)
		if err != nil {
			t.Fatal(err)
		}
		for form, ks := range map[string][2]*kb.KB{
			"built":  {d.K1, d.K2},
			"loaded": {k1, k2},
			"opened": {loaded.Substrate().K1(), loaded.Substrate().K2()},
		} {
			for side, k := range ks {
				if got := descriptionDigest(k); got != pinned[p.Name][side] {
					t.Errorf("%s E%d %s: descriptions digest %s, pinned %s", p.Name, side+1, form, got, pinned[p.Name][side])
				}
			}
		}
		loaded.Close()
	}
}
