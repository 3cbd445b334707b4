package snapshot

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// pinnedDigest replicates the digest of internal/core's pinned-digest test
// over an Output and the substrate it was resolved over, so snapshot-loaded
// substrates can be checked against the committed byte-identity fixtures
// without an import cycle.
func pinnedDigest(t *testing.T, sub *core.Substrate, out *core.Output) string {
	t.Helper()
	h := sha256.New()
	for _, m := range out.Matches {
		fmt.Fprintf(h, "m %d %d %s\n", m.Pair.E1, m.Pair.E2, m.Rule)
	}
	fmt.Fprintf(h, "r4 %d edges %d purged %d threshold %d\n",
		out.RemovedByR4, out.GraphEdges, out.PurgedBlocks, out.PurgeThreshold)
	fmt.Fprintf(h, "names %v %v\n", out.NameAttrs1, out.NameAttrs2)
	nameBlocks, err := sub.NameBlocks()
	if err != nil {
		t.Fatal(err)
	}
	tokenBlocks, err := sub.TokenBlocks()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "blocks %d %d comparisons %d %d\n",
		nameBlocks.Len(), tokenBlocks.Len(),
		nameBlocks.TotalComparisons(), tokenBlocks.TotalComparisons())
	return hex.EncodeToString(h.Sum(nil))
}

type pinnedCase struct {
	Dataset string `json:"dataset"`
	Workers int    `json:"workers"`
	Shards  int    `json:"shards"`
	SHA256  string `json:"sha256"`
}

// loadPinned returns the pinned digest for a preset at workers=1, shards=1.
func loadPinned(t *testing.T, dataset string) string {
	t.Helper()
	data, err := os.ReadFile("../core/testdata/pinned_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []pinnedCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Dataset == dataset && c.Workers == 1 && c.Shards == 1 {
			return c.SHA256
		}
	}
	t.Fatalf("no pinned digest for %s", dataset)
	return ""
}

// generatePreset generates a preset pair at the pinned-fixture scale (0.1).
func generatePreset(t *testing.T, name string) *datagen.Dataset {
	t.Helper()
	for _, profile := range datagen.Presets() {
		if profile.Name != name {
			continue
		}
		d, err := datagen.Generate(datagen.Scale(profile, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t.Fatalf("unknown preset %s", name)
	return nil
}

// buildPreset builds the substrate of a generated preset pair.
func buildPreset(t *testing.T, name string) *core.Substrate {
	t.Helper()
	sub, err := buildWith(generatePreset(t, name), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func buildWith(d *datagen.Dataset, workers int) (*core.Substrate, error) {
	return core.BuildSubstrate(context.Background(), d.K1, d.K2, core.Config{Workers: workers})
}

func resolveDigest(t *testing.T, sub *core.Substrate) string {
	t.Helper()
	out, err := core.ResolveWith(context.Background(), sub, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pinnedDigest(t, sub, out)
}

func snapshotBytes(t testing.TB, sub *core.Substrate) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSubstrate(&buf, sub); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func presetsUnderTest(t *testing.T) []string {
	if testing.Short() {
		return []string{"Restaurant"}
	}
	var names []string
	for _, p := range datagen.Presets() {
		names = append(names, p.Name)
	}
	return names
}

// TestRoundTripPinnedDigests proves the byte-identity bar: a substrate
// round-tripped through the snapshot format — via both the mmap loader and
// the portable copying decoder — resolves to exactly the digests pinned
// before the substrate refactor.
func TestRoundTripPinnedDigests(t *testing.T) {
	for _, name := range presetsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			sub := buildPreset(t, name)
			want := loadPinned(t, name)
			if got := resolveDigest(t, sub); got != want {
				t.Fatalf("built substrate digest %s differs from pinned %s", got, want)
			}

			path := filepath.Join(t.TempDir(), "pair.snap")
			if err := WriteSubstrateFile(path, sub); err != nil {
				t.Fatal(err)
			}
			opened, err := OpenSubstrate(path)
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			if got := resolveDigest(t, opened.Substrate()); got != want {
				t.Errorf("mmap-loaded digest %s differs from pinned %s", got, want)
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			read, err := ReadSubstrate(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := resolveDigest(t, read.Substrate()); got != want {
				t.Errorf("copy-decoded digest %s differs from pinned %s", got, want)
			}
		})
	}
}

// TestRoundTripQueryRows proves the query path: QueryEntity over a
// snapshot-loaded substrate (with its persisted query state) returns rows
// deep-equal to the originally built, prewarmed substrate — under both
// decoders, for replays, new entities and names nobody carries.
func TestRoundTripQueryRows(t *testing.T) {
	sub := buildPreset(t, "Restaurant")
	ctx := context.Background()
	if err := sub.PrewarmQueries(ctx); err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, sub)

	path := filepath.Join(t.TempDir(), "pair.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSubstrate(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	read, err := ReadSubstrate(data)
	if err != nil {
		t.Fatal(err)
	}

	k1 := sub.K1()
	n := k1.Len()
	if n == 0 {
		t.Fatal("empty KB")
	}
	cfg := core.Config{Workers: 1}
	attrs1, _ := sub.NameAttrs()
	checked := 0
	for i := 0; i < n; i += 1 + n/50 { // ~50 spread-out entities
		replay := core.QueryFromEntity(k1, kb.EntityID(i))
		// The same description as a new entity, and one whose name no
		// entity carries: the name table is read for a sole carrier on
		// neither side, and missed.
		fresh := replay
		fresh.URI, fresh.SelfURI = "q:new", ""
		unnamed := core.EntityQuery{URI: "q:unnamed", Attrs: []kb.AttributeValue{{Attribute: attrs1[0], Value: fmt.Sprintf("nobody %d", i)}}}
		for _, q := range []core.EntityQuery{replay, fresh, unnamed} {
			want, err := core.QueryEntity(ctx, sub, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, loaded := range map[string]*core.Substrate{
				"mmap": opened.Substrate(), "copy": read.Substrate(),
			} {
				got, err := core.QueryEntity(ctx, loaded, q, cfg)
				if err != nil {
					t.Fatalf("%s: entity %d, query %s: %v", name, i, q.URI, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: entity %d, query %s: rows differ\nbuilt:  %+v\nloaded: %+v", name, i, q.URI, want, got)
				}
			}
		}
		// The replay kernel reads the entity's stored rows, so it is
		// compared on each substrate with the built statement path.
		want, err := core.QueryEntity(ctx, sub, replay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*core.Substrate{
			"built": sub, "mmap": opened.Substrate(), "copy": read.Substrate(),
		} {
			got, err := core.ReplayEntity(ctx, s, kb.EntityID(i), cfg)
			if err != nil {
				t.Fatalf("%s: replay of entity %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay of entity %d differs from its statements' query\nreplay: %+v\nquery:  %+v", name, i, got, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no entities checked")
	}
}

// TestCorruptInputs exercises the failure paths: truncation, a wrong magic,
// an unknown version and a misaligned section must all surface as the typed
// errors, never a panic.
func TestCorruptInputs(t *testing.T) {
	sub := buildPreset(t, "Restaurant")
	data := snapshotBytes(t, sub)

	mutate := func(f func(b []byte) []byte) []byte {
		b := bytes.Clone(data)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
		want error
		text string // in the message, when not empty
	}{
		{"empty", nil, ErrTruncated, ""},
		{"short-header", mutate(func(b []byte) []byte { return b[:10] }), ErrTruncated, ""},
		{"cut-table", mutate(func(b []byte) []byte { return b[:headerSize+5] }), ErrTruncated, ""},
		{"cut-sections", mutate(func(b []byte) []byte { return b[:len(b)/2] }), ErrTruncated, ""},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }), ErrBadMagic, ""},
		{"bad-version", mutate(func(b []byte) []byte { b[8] = 99; return b }), ErrVersion, ""},
		// A file of the 16-byte edge records, one that stores the token
		// index, one without the γ₁ edge count, and one with two name
		// tables: refused by name, to be rebuilt.
		{"version-1", mutate(func(b []byte) []byte { b[8] = 1; return b }), ErrVersion, fmt.Sprintf("version 1 (this build reads %d;", formatVersion)},
		{"version-2", mutate(func(b []byte) []byte { b[8] = 2; return b }), ErrVersion, fmt.Sprintf("version 2 (this build reads %d;", formatVersion)},
		{"version-3", mutate(func(b []byte) []byte { b[8] = 3; return b }), ErrVersion, fmt.Sprintf("version 3 (this build reads %d;", formatVersion)},
		{"version-4", mutate(func(b []byte) []byte { b[8] = 4; return b }), ErrVersion, fmt.Sprintf("version 4 (this build reads %d;", formatVersion)},
		{"misaligned-section", mutate(func(b []byte) []byte {
			// Bump the first table entry's offset by 4: still in bounds (the
			// length check uses the stored length), no longer 8-aligned.
			b[headerSize+8] += 4
			return b
		}), ErrMisaligned, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadSubstrate(c.data)
			if err == nil {
				t.Fatal("decode of corrupt input succeeded")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want errors.Is %v", err, c.want)
			}
			if !strings.Contains(err.Error(), c.text) {
				t.Fatalf("got %q, want it to say %q", err, c.text)
			}
		})
	}
}

// TestCorruptFileViaOpen checks the mmap path reports the same typed errors.
func TestCorruptFileViaOpen(t *testing.T) {
	sub := buildPreset(t, "Restaurant")
	data := snapshotBytes(t, sub)
	data[0] ^= 0xff
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSubstrate(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestWriteDeterministic: the same substrate serializes to identical bytes.
func TestWriteDeterministic(t *testing.T) {
	sub := buildPreset(t, "Restaurant")
	a := snapshotBytes(t, sub)
	b := snapshotBytes(t, sub)
	if !bytes.Equal(a, b) {
		t.Fatal("two writes of the same substrate differ")
	}
}

// A meta section written before Config lost its three result-neutral
// options, and before the stored config lost Workers, still decodes. It
// stored the config with four keys a stored Config no longer has, and the
// build's clocks (timings, build_wall_ns), which meta no longer records;
// JSON decoding ignores all six. The fixture is the tiny pair's meta section
// as a version 3 writer wrote it for a run in 8 shards without token blocks,
// at one worker. It predates the γ₁ edge count, which every version 4
// writer stores, so as committed it is refused as corrupt (a missing count
// would read as 0 and short the pair's edge count); with the image's own
// count spliced in, it opens.
func TestMetaWithRemovedConfigKeysOpens(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "meta-with-removed-config-keys.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Config map[string]json.RawMessage `json:"config"`
	}
	var current map[string]json.RawMessage
	now, err := json.Marshal(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(json.Unmarshal(legacy, &stored), json.Unmarshal(now, &current)); err != nil {
		t.Fatal(err)
	}
	if len(stored.Config) != len(current)+4 {
		t.Fatalf("the fixture's config has %d keys, Config %d: want four more", len(stored.Config), len(current))
	}

	tiny := tinySubstrate(t)
	h := parsed(t, snapshotBytes(t, tiny))
	ctx := context.Background()
	// open writes the tiny pair's image with the given meta section to a
	// file and opens it.
	open := func(meta []byte) (*Loaded, error) {
		secs := make([]section, 0, len(h.sections))
		for id, data := range h.sections {
			if id == secMeta {
				data = meta
			}
			secs = append(secs, section{id, data})
		}
		slices.SortFunc(secs, func(a, b section) int { return cmp.Compare(a.id, b.id) })
		var img bytes.Buffer
		if err := writeGroups(ctx, &img, h.flags, []group{ready(secs)}, parallel.New(1)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "pair.snap")
		if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return OpenSubstrate(path)
	}
	if refused, err := open(legacy); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			refused.Close()
		}
		t.Fatalf("a meta section without the γ₁ edge count: %v, want ErrCorrupt", err)
	}
	var own, spliced map[string]json.RawMessage
	if err := errors.Join(json.Unmarshal(h.sections[secMeta], &own), json.Unmarshal(legacy, &spliced)); err != nil {
		t.Fatal(err)
	}
	spliced["gamma1_edges"] = own["gamma1_edges"]
	meta, err := json.Marshal(spliced)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := open(meta)
	if err != nil {
		t.Fatalf("a meta section with removed config keys: %v", err)
	}
	defer opened.Close()
	sub := opened.Substrate()
	want := tiny.Config()
	want.Workers = 0 // the fixture's 1 is not decoded
	if got := sub.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("opened config %+v, built %+v", got, want)
	}
	cfg := core.Config{Workers: 1}
	built, err := core.ResolveWith(ctx, tiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ResolveWith(ctx, sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Matches) == 0 || !reflect.DeepEqual(got.Matches, built.Matches) {
		t.Fatalf("the opened pair resolves to %d matches, the built one to %d", len(got.Matches), len(built.Matches))
	}
}
