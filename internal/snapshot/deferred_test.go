package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// readDamaged loads the tiny snapshot with one section rewritten by damage.
// The open must succeed: whatever damage leaves the structure intact is the
// first reader's to find.
func readDamaged(t *testing.T, id uint32, damage func(sec []byte)) *core.Substrate {
	t.Helper()
	img := snapshotBytes(t, tinySubstrate(t))
	h, err := parseHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	damage(h.sections[id])
	read, err := ReadSubstrate(img)
	if err != nil {
		t.Fatalf("damage the open leaves to the first reader failed the open: %v", err)
	}
	return read.Substrate()
}

// refusedTwice requires call to fail with want on two calls in a row: the
// verdict of a deferred check sticks.
func refusedTwice(t *testing.T, what string, want error, call func() error) {
	t.Helper()
	for round := 0; round < 2; round++ {
		if err := call(); !errors.Is(err, want) {
			t.Fatalf("%s, call %d: %v, want %v", what, round, err, want)
		}
	}
}

// A statement naming an attribute the schema does not have is refused by
// the first read of that entity, then by every read of the KB; a warm batch
// resolution, which reads no KB column, is not affected.
func TestDamagedKBColumnIsRefusedAtFirstUse(t *testing.T) {
	sub := readDamaged(t, kb1Base+kbStmtAttrName, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<20) })
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	if _, err := core.ResolveWith(ctx, sub, cfg); err != nil {
		t.Fatalf("a warm resolve reads no KB column: %v", err)
	}
	k1 := sub.K1()
	refusedTwice(t, "describing the damaged entity", kb.ErrCorrupt, func() error {
		_, err := k1.Describe(0)
		return err
	})
	refusedTwice(t, "replaying an undamaged entity", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, kb.EntityID(k1.Len()-1)), cfg)
		return err
	})
	refusedTwice(t, "copying the substrate", kb.ErrCorrupt, func() error { return WriteSubstrate(io.Discard, sub) })
}

// A sorted permutation naming strings the dictionary does not have is
// refused by the first lookup that touches it, then by every query.
func TestDamagedPermutationIsRefusedAtFirstUse(t *testing.T) {
	sub := readDamaged(t, dict1Base+frozenSorted, func(b []byte) {
		for i := 0; i+4 <= len(b); i += 4 {
			binary.LittleEndian.PutUint32(b[i:], 1<<30)
		}
	})
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	if _, err := core.ResolveWith(ctx, sub, cfg); err != nil {
		t.Fatalf("a warm resolve looks no token up: %v", err)
	}
	describe := core.EntityQuery{URI: "q:new", Attrs: []kb.AttributeValue{{Attribute: "note", Value: "common words"}}}
	refusedTwice(t, "a query looking its tokens up", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, describe, cfg)
		return err
	})
	if _, ok := sub.K1().TokenDict().Lookup("common"); ok {
		t.Fatal("a lookup through a damaged permutation found a token")
	}
}

// The token index is derived from the KB token columns, so a token ID
// there that names no token of the dictionary is refused with the KB's
// verdict by whatever derives it — a query describing a new entity, the
// token index itself — every time, and by nothing that does not: a warm
// batch resolution, a replay of stored rows. No reader answers as if the
// damaged entity had no tokens, and the token blocks are refused too.
func TestDamagedTokenMemberIsRefusedAtFirstUse(t *testing.T) {
	sub := readDamaged(t, kb2Base+kbTokens, func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<20) })
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	if _, err := core.ResolveWith(ctx, sub, cfg); err != nil {
		t.Fatalf("a warm resolve reads no token column: %v", err)
	}
	if _, err := core.ReplayEntity(ctx, sub, 0, cfg); err != nil {
		t.Fatalf("a replay reads no token column: %v", err)
	}
	describe := core.EntityQuery{URI: "q:new", Attrs: []kb.AttributeValue{{Attribute: "note", Value: "common words"}}}
	refusedTwice(t, "a query describing a new entity", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, describe, cfg)
		return err
	})
	refusedTwice(t, "the token index", kb.ErrCorrupt, func() error {
		_, err := sub.TokenIndex(ctx)
		return err
	})
	refusedTwice(t, "the token blocks", kb.ErrCorrupt, func() error {
		_, err := sub.TokenBlocks()
		return err
	})
}

// Token strings are read by the derive of a pair with two dictionaries,
// which merges them by string, and by the token blocks, whose keys they
// are. A damaged one is refused by both — every time — and never read as
// an empty token or key.
func TestDamagedDictionaryStringIsRefused(t *testing.T) {
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	private := readDamaged(t, dict2Base+frozenOff, func(b []byte) {
		binary.LittleEndian.PutUint64(b[8:], binary.LittleEndian.Uint64(b[16:])+1)
	})
	describe := core.EntityQuery{URI: "q:new", Attrs: []kb.AttributeValue{{Attribute: "note", Value: "common words"}}}
	refusedTwice(t, "a describe query on a pair with two dictionaries", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, private, describe, cfg)
		return err
	})

	// Every string of the shared dictionary of a preset, its offsets
	// alternating between the blob's ends (the ends themselves intact).
	img := snapshotBytes(t, buildPreset(t, "Restaurant"))
	off := parsed(t, img).sections[dict1Base+frozenOff]
	end := binary.LittleEndian.Uint64(off[len(off)-8:])
	for i := 8; i+8 < len(off); i += 8 {
		binary.LittleEndian.PutUint64(off[i:], end*uint64(i/8%2))
	}
	read, err := ReadSubstrate(img)
	if err != nil {
		t.Fatal(err)
	}
	shared := read.Substrate()
	if _, err := core.ResolveWith(ctx, shared, cfg); err != nil {
		t.Fatalf("a warm resolve reads no token string: %v", err)
	}
	refusedTwice(t, "the token blocks", kb.ErrCorrupt, func() error {
		_, err := shared.TokenBlocks()
		return err
	})
	if err := shared.K1().TokenDict().Err(); !errors.Is(err, kb.ErrCorrupt) {
		t.Fatalf("the dictionary after its keys were read: %v, want kb.ErrCorrupt", err)
	}
}

// A token index that purges other blocks than the stored build did — here,
// a file whose meta section claims one purged block more — is refused with
// kb.ErrCorrupt by every reader of the index, and by nothing else.
func TestPurgeMismatchIsRefusedAtFirstUse(t *testing.T) {
	built := buildPreset(t, "BBCmusic-DBpedia")
	img := snapshotBytes(t, built)
	meta := parsed(t, img).sections[secMeta]
	key := []byte(fmt.Sprintf(`"purged_blocks":%d`, built.PurgedBlocks()))
	at := bytes.Index(meta, key)
	if built.PurgedBlocks() == 0 || built.PurgedBlocks()%10 == 9 || at < 0 {
		t.Fatalf("cannot raise purged_blocks %d in place in %s", built.PurgedBlocks(), meta)
	}
	meta[at+len(key)-1]++
	read, err := ReadSubstrate(img)
	if err != nil {
		t.Fatal(err)
	}
	sub, ctx, cfg := read.Substrate(), context.Background(), core.Config{Workers: 1}
	if _, err := core.ResolveWith(ctx, sub, cfg); err != nil {
		t.Fatalf("a warm resolve derives no index: %v", err)
	}
	refusedTwice(t, "a query through an entity's statements", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, core.QueryFromEntity(sub.K1(), 0), cfg)
		return err
	})
	refusedTwice(t, "the token index", kb.ErrCorrupt, func() error {
		_, err := sub.TokenIndex(ctx)
		return err
	})
}

// A member of the name table naming no entity is refused by whatever reads
// the table whole — NameBlocks, a private graph, Verify — and by a query
// whose name lookup misses, which runs the table's check; a warm batch
// resolution, which reads no name, gives the built pair's matches. The
// member is the first E1 carrier of a name block, so the tiny pair, which
// has no name block, does not do; this damages a preset's.
func TestDamagedNameBlockIsRefusedAtFirstUse(t *testing.T) {
	img, err := os.ReadFile(presetSnapshot(t, "Restaurant", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.sections[secNameE1Flat]) == 0 {
		t.Fatal("the preset has no name block; test is vacuous")
	}
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	intact, err := ReadSubstrate(bytes.Clone(img))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ResolveWith(ctx, intact.Substrate(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(h.sections[secNameE1Flat], 1<<20)
	read, err := ReadSubstrate(img)
	if err != nil {
		t.Fatalf("a damaged member failed the open: %v", err)
	}
	sub := read.Substrate()
	if out, err := core.ResolveWith(ctx, sub, cfg); err != nil || !reflect.DeepEqual(out.Matches, want.Matches) {
		t.Fatalf("a warm resolve reads no name: %v", err)
	}
	for _, want := range []error{kb.ErrCorrupt, graph.ErrOutOfRange} {
		refusedTwice(t, "the name blocks", want, func() error {
			_, err := sub.NameBlocks()
			return err
		})
		refusedTwice(t, "a resolve over a private graph", want, func() error {
			_, err := core.ResolveWith(ctx, sub, core.Config{Workers: 1, TopK: 3})
			return err
		})
	}
	attrs1, _ := sub.NameAttrs()
	unknown := core.EntityQuery{URI: "q:new", Attrs: []kb.AttributeValue{{Attribute: attrs1[0], Value: "nobody by this name"}}}
	refusedTwice(t, "a query whose name misses", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, unknown, cfg)
		return err
	})
	refusedTwice(t, "Verify", kb.ErrCorrupt, sub.Verify)
}

// readNamesDamaged loads the snapshot img with the keys of its name table
// rewritten by damage, which gets the blob and the offset of each name. The
// open must succeed: the order of the names is the first reader's to check.
func readNamesDamaged(t *testing.T, img []byte, damage func(t *testing.T, blob []byte, off func(int) int, n int)) *core.Substrate {
	t.Helper()
	img = bytes.Clone(img)
	h, err := parseHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, offs := h.sections[secNameKeys+frozenBlob], h.sections[secNameKeys+frozenOff]
	off := func(i int) int { return int(binary.LittleEndian.Uint64(offs[8*i:])) }
	damage(t, blob, off, len(offs)/8-1)
	read, err := ReadSubstrate(img)
	if err != nil {
		t.Fatalf("damage to the name order failed the open: %v", err)
	}
	return read.Substrate()
}

// duplicateName overwrites a name with the name before it, of the same
// length: the table is still in order, but lists that name twice, and each
// entry could read as its only carrier.
func duplicateName(t *testing.T, blob []byte, off func(int) int, n int) {
	t.Helper()
	for i := 1; i+1 <= n; i++ {
		if off(i)-off(i-1) == off(i+1)-off(i) {
			copy(blob[off(i):off(i+1)], blob[off(i-1):off(i)])
			return
		}
	}
	t.Fatal("no two adjacent names of one length; test is vacuous")
}

// A name table out of order, or listing one name twice, cannot be trusted
// with a miss: Verify refuses it, and so does the first lookup that misses,
// whose verdict refuses every query after it. The pair is Restaurant: the
// tiny pair's names alternate in length, so none can be duplicated in place.
func TestDamagedNameOrderIsRefusedAtFirstUse(t *testing.T) {
	img := snapshotBytes(t, buildPreset(t, "Restaurant"))
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, blob []byte, off func(int) int, n int)
	}{
		{"out of order", func(_ *testing.T, blob []byte, _ func(int) int, _ int) { blob[0] = 0xff }},
		{"duplicated", duplicateName},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusedTwice(t, "Verify", kb.ErrCorrupt, readNamesDamaged(t, img, tc.damage).Verify)

			sub, ctx, cfg := readNamesDamaged(t, img, tc.damage), context.Background(), core.Config{Workers: 1}
			if _, err := core.ResolveWith(ctx, sub, cfg); err != nil {
				t.Fatalf("a warm resolve reads no name table: %v", err)
			}
			attrs1, _ := sub.NameAttrs()
			if len(attrs1) == 0 {
				t.Fatal("the Restaurant pair has no name attribute; test is vacuous")
			}
			unknown := core.EntityQuery{URI: "q:new", Attrs: []kb.AttributeValue{{Attribute: attrs1[0], Value: "nobody by this name"}}}
			refusedTwice(t, "a query whose name misses", kb.ErrCorrupt, func() error {
				_, err := core.QueryEntity(ctx, sub, unknown, cfg)
				return err
			})
			refusedTwice(t, "a replay after it", kb.ErrCorrupt, func() error {
				_, err := core.QueryEntity(ctx, sub, core.QueryFromEntity(sub.K1(), 0), cfg)
				return err
			})
		})
	}
}

// Entity URIs whose offsets decrease are refused by a batch resolution,
// whose matches every caller prints by URI, and by the reads of the URIs
// beside the damage; none of them hands out an empty URI as an answer.
func TestDamagedURIOffsetsAreRefusedAtFirstUse(t *testing.T) {
	// URI 0 ends one byte past URI 1's end: inside the blob, so only the
	// offsets beside it show the damage.
	sub := readDamaged(t, kb1Base+kbURIOff, func(b []byte) {
		binary.LittleEndian.PutUint64(b[8:], binary.LittleEndian.Uint64(b[16:])+1)
	})
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	refusedTwice(t, "a batch resolve", kb.ErrCorrupt, func() error {
		_, err := core.ResolveWith(ctx, sub, cfg)
		return err
	})
	k1 := sub.K1()
	for id := range 2 { // the strings on either side of the damaged offset
		if uri := k1.URI(kb.EntityID(id)); uri != "" {
			t.Errorf("URI %d read as %q across damaged offsets", id, uri)
		}
	}
	if err := k1.Err(); !errors.Is(err, kb.ErrCorrupt) {
		t.Fatalf("KB.Err after reading a damaged URI: %v", err)
	}
	refusedTwice(t, "replaying the entity whose URI is damaged", kb.ErrCorrupt, func() error {
		_, err := core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, 0), cfg)
		return err
	})
}

// presetSnapshot writes the snapshot of a preset at the given scale and
// returns its path.
func presetSnapshot(t *testing.T, preset string, scale float64) string {
	t.Helper()
	var profile datagen.Profile
	for _, p := range datagen.Presets() {
		if p.Name == preset {
			profile = p
		}
	}
	d, err := datagen.Generate(datagen.Scale(profile, scale))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := buildWith(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pair.snap")
	if err := WriteSubstrateFile(path, sub); err != nil {
		t.Fatal(err)
	}
	return path
}

// Opening a snapshot allocates per section, not per entity: two sizes of one
// preset open in the same number of allocations.
func TestOpenAllocatesPerSection(t *testing.T) {
	allocs := func(scale float64) (float64, int) {
		path := presetSnapshot(t, "Restaurant", scale)
		entities := 0
		n := testing.AllocsPerRun(5, func() {
			loaded, err := OpenSubstrate(path)
			if err != nil {
				t.Fatal(err)
			}
			entities = loaded.Substrate().K1().Len() + loaded.Substrate().K2().Len()
			if err := loaded.Close(); err != nil {
				t.Fatal(err)
			}
		})
		return n, entities
	}
	small, n1 := allocs(0.5)
	large, n2 := allocs(2)
	if n1 >= n2 {
		t.Fatalf("pairs of %d and %d entities; test is vacuous", n1, n2)
	}
	if small != large {
		t.Errorf("opening %d entities takes %v allocations, %d entities %v", n1, small, n2, large)
	}
}
