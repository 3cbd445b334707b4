package kb_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// Every entity's URI looks up to the entity itself, on the KBs a loader
// builds and on the same KBs opened from a snapshot.
func TestURILookupRoundTrip(t *testing.T) {
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e1, e2 := filepath.Join(dir, "e1.nt"), filepath.Join(dir, "e2.nt")
	for path, k := range map[string]*kb.KB{e1: d.K1, e2: d.K2} {
		f, err := os.Create(path)
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
	k1, k2, _, err := kb.LoadPair(context.Background(), e1, e2, "nt", false)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.BuildSubstrate(context.Background(), k1, k2, core.Config{})
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
	defer loaded.Close()
	for name, k := range map[string]*kb.KB{
		"built E1": k1, "built E2": k2,
		"snapshot E1": loaded.Substrate().K1(), "snapshot E2": loaded.Substrate().K2(),
	} {
		if k.Len() == 0 {
			t.Fatalf("%s: no entities; test is vacuous", name)
		}
		for i := 0; i < k.Len(); i++ {
			if got := k.Lookup(k.URI(kb.EntityID(i))); got != kb.EntityID(i) {
				t.Fatalf("%s: Lookup(URI(%d) = %q) = %d", name, i, k.URI(kb.EntityID(i)), got)
			}
		}
		if got := k.Lookup("no such entity"); got != kb.NoEntity {
			t.Fatalf("%s: Lookup of an unknown URI = %d", name, got)
		}
	}
}
