package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/kb"
)

// Metamorphic: whether the two files of a pair are ingested into shared
// dictionaries (kb.LoadPair, blocking's identity path) or each into its own
// (two kb.LoadNTriples calls, blocking merges them by string) must not show
// in any result — batch matches and rules, query rows with their scores for
// replayed and for newly described entities — and the snapshot of the
// shared pair must say it stores one dictionary, and resolve to the same
// digest once reopened.
func TestSharedVersusPrivateDictionaries(t *testing.T) {
	ctx := context.Background()
	cfg := core.Config{Workers: 1}
	for _, name := range presetsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := writePresetFiles(t, dir, name)

			s1, s2, _, err := kb.LoadPair(ctx, paths[0], paths[1], "nt", false)
			if err != nil {
				t.Fatal(err)
			}
			var private [2]*kb.KB
			for i, path := range paths {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if private[i], _, err = kb.LoadNTriples([]*kb.KB{s1, s2}[i].Name(), bytes.NewReader(data), false); err != nil {
					t.Fatal(err)
				}
			}
			p1, p2 := private[0], private[1]
			if s1.TokenDict() != s2.TokenDict() || s1.Schema() != s2.Schema() {
				t.Fatal("LoadPair did not share the dictionaries")
			}
			if p1.TokenDict() == p2.TokenDict() || p1.Schema() == p2.Schema() {
				t.Fatal("separately loaded KBs share a dictionary")
			}

			subShared, err := core.BuildSubstrate(ctx, s1, s2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			subSeparate, err := core.BuildSubstrate(ctx, p1, p2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := core.ResolveWith(ctx, subShared, cfg)
			if err != nil {
				t.Fatal(err)
			}
			separate, err := core.ResolveWith(ctx, subSeparate, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(shared.Matches) == 0 || !reflect.DeepEqual(shared.Matches, separate.Matches) {
				t.Fatalf("matches differ: %d shared, %d separate", len(shared.Matches), len(separate.Matches))
			}
			if got, want := pinnedDigest(subShared, shared), pinnedDigest(subSeparate, separate); got != want {
				t.Errorf("output digest %s shared, %s separate", got, want)
			}
			if err := subShared.PrewarmQueries(ctx); err != nil {
				t.Fatal(err)
			}
			n := s1.Len()
			for i := 0; i < n; i += 1 + n/60 {
				replay := core.QueryFromEntity(s1, kb.EntityID(i))
				describe := replay
				describe.URI, describe.SelfURI = "new:entity", ""
				for _, q := range []core.EntityQuery{replay, describe} {
					got, err := core.QueryEntity(ctx, subShared, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.QueryEntity(ctx, subSeparate, q, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("entity %d (self %q): rows differ\nshared:   %+v\nseparate: %+v", i, q.SelfURI, got, want)
					}
				}
			}

			snap := filepath.Join(dir, "pair.snap")
			if err := WriteSubstrateFile(snap, subShared); err != nil {
				t.Fatal(err)
			}
			head, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			const oneDictionary = flagSharedDict | flagSharedSchema
			if flags := binary.LittleEndian.Uint32(head[12:]); flags&oneDictionary != oneDictionary {
				t.Errorf("snapshot flags %04b: want one token dictionary and one schema (%04b)", flags, oneDictionary)
			}
			opened, err := OpenSubstrate(snap)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if got, want := resolveDigest(t, opened.Substrate()), pinnedDigest(subShared, shared); got != want {
				t.Errorf("reopened snapshot resolves to digest %s, the built pair to %s", got, want)
			}
		})
	}
}

// writePresetFiles writes the two KBs of a generated preset pair as
// N-Triples files.
func writePresetFiles(t *testing.T, dir, preset string) [2]string {
	t.Helper()
	d := generatePreset(t, preset)
	paths := [2]string{filepath.Join(dir, "e1.nt"), filepath.Join(dir, "e2.nt")}
	for i, k := range []*kb.KB{d.K1, d.K2} {
		var nt bytes.Buffer
		if err := kb.WriteNTriples(&nt, k); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], nt.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}
