package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// tinySubstrate is a pair small enough to mutate byte by byte and rich
// enough to fill every section: shared and unique names, shared tokens,
// relations in both KBs, private dictionaries.
func tinySubstrate(t testing.TB) *core.Substrate {
	t.Helper()
	b1, b2 := kb.NewBuilder("T1"), kb.NewBuilder("T2")
	for i := 0; i < 6; i++ {
		e1 := b1.AddEntity(fmt.Sprintf("t1:e%d", i))
		e2 := b2.AddEntity(fmt.Sprintf("t2:e%d", i))
		b1.AddLiteral(e1, "name", fmt.Sprintf("item %d alpha", i))
		b2.AddLiteral(e2, "label", fmt.Sprintf("item %d beta", i))
		b1.AddLiteral(e1, "note", "common words here")
		b2.AddLiteral(e2, "note", "common words there")
		if i > 0 {
			b1.AddObject(e1, "next", fmt.Sprintf("t1:e%d", i-1))
			b2.AddObject(e2, "prev", fmt.Sprintf("t2:e%d", i-1))
		}
	}
	// The substrate's snapshot is the same bytes on every run: the committed
	// corpus is derived from it.
	sub, err := core.BuildSubstrate(context.Background(), b1.Build(), b2.Build(), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// fuzzSeeds derives the committed corpus from the tiny snapshot: the image
// itself, truncations, and flips aimed at what the loader installs without
// copying — the section table, offset tables, edge targets and weights and
// entity IDs of the graph, and the sorted permutations of the dictionaries —
// and at what the token index is derived from: the KB token columns and,
// the tiny pair's dictionaries being private, the strings that translate
// them into one slot space. Edge damage is placed by the record layout
// (edgeSize, edgeWeightAt). Three seeds rewrite the meta section: with a γ₁
// edge count no graph of the pair can hold, and without one.
func fuzzSeeds(t testing.TB) map[string][]byte {
	sub := tinySubstrate(t)
	img := snapshotBytes(t, sub)
	h, err := parseHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	at := func(id uint32) int { // offset of a section's first byte in the image
		for i := 0; ; i++ {
			e := img[headerSize+i*tableEntry:]
			if binary.LittleEndian.Uint32(e) == id {
				return int(binary.LittleEndian.Uint64(e[8:]))
			}
		}
	}
	flip := func(off int, b byte) []byte {
		out := bytes.Clone(img)
		out[off] ^= b
		return out
	}
	last := func(id uint32) int { return at(id) + len(h.sections[id]) }
	word := func(off int, v uint64) []byte {
		out := bytes.Clone(img)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	// gamma1Edges re-lays the image, sections in table order, with the meta
	// section's γ₁ edge count set to n, or without it when n is nil.
	gamma1Edges := func(n any) []byte {
		var meta map[string]json.RawMessage
		if err := json.Unmarshal(h.sections[secMeta], &meta); err != nil {
			t.Fatal(err)
		}
		meta["gamma1_edges"] = json.RawMessage(fmt.Sprint(n))
		if n == nil {
			delete(meta, "gamma1_edges")
		}
		mb, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		secs := make([]section, len(h.sections))
		for i := range secs {
			id := binary.LittleEndian.Uint32(img[headerSize+i*tableEntry:])
			secs[i] = section{id, h.sections[id]}
			if id == secMeta {
				secs[i].data = mb
			}
		}
		var out bytes.Buffer
		if err := writeGroups(context.Background(), &out, h.flags, []group{ready(secs)}, parallel.New(1)); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	n1, n2, k := sub.K1().Len(), sub.K2().Len(), sub.Config().TopK
	return map[string][]byte{
		"valid":                img,
		"cut-in-table":         img[:headerSize+tableEntry+3],
		"cut-in-sections":      img[:len(img)*2/3],
		"cut-last-byte":        img[:len(img)-1],
		"table-length":         flip(headerSize+16, 0x10),
		"table-offset":         flip(headerSize+tableEntry+9, 0x01),
		"table-id":             flip(headerSize+2*tableEntry, 0x40),
		"flags":                flip(12, 0x07),
		"beta1-offsets":        flip(at(secBeta1Off)+8, 0x20),
		"adj1-last-offset":     flip(last(secAdj1Off)-8, 0x01),
		"gamma2-offsets-fall":  flip(at(secGamma2Off)+9, 0x01),
		"beta1-target":         flip(at(secBeta1Edges), 0x40),
		"beta2-target-neg":     flip(at(secBeta2Edges)+3, 0x80),
		"adj1-target":          flip(at(secAdj1Edges)+edgeSize, 0x10),
		"adj1-weight-nan":      word(at(secAdj1Edges)+edgeWeightAt, math.Float64bits(math.NaN())),
		"beta2-weight-nan":     word(at(secBeta2Edges)+edgeWeightAt, math.Float64bits(math.NaN())),
		"in2-entity":           flip(at(secIn2Flat), 0x20),
		"alpha1-target":        flip(at(secAlpha1Flat), 0x08),
		"top1-neighbor":        flip(at(secTop1Flat), 0x40),
		"top1-last-offset":     word(last(secTop1Off)-8, 1<<40),
		"dict-sorted":          flip(at(dict1Base+frozenSorted), 0x80),
		"dict-sorted-swap":     flip(at(dict1Base+frozenSorted), 0x03),
		"uri-sorted":           flip(at(kb1Base+kbURISorted)+4, 0x10),
		"uri-offsets":          flip(at(kb1Base+kbURIOff)+8, 0x04),
		"token-members":        flip(at(kb2Base+kbTokens), 0x10),
		"token-translation":    flip(at(dict2Base+frozenOff)+8, 0x04),
		"kb-tokens":            flip(at(kb1Base+kbTokens), 0x40),
		"kb-statement-object":  flip(at(kb2Base+kbStmtRelObj), 0x08),
		"kb-attribute-name":    flip(at(kb1Base+kbStmtAttrName), 0x10),
		"name-usage-carrier":   flip(at(secNamesE2), 0x10),
		"name-block-member":    flip(at(secNameE1Flat), 0x20),
		"meta-json":            flip(at(secMeta)+1, 0x01),
		"gamma1-count-over":    gamma1Edges(n1*min(k, n2) + 1),
		"gamma1-count-neg":     gamma1Edges(-1),
		"gamma1-count-missing": gamma1Edges(nil),
	}
}

// TestFuzzCorpusCommitted keeps testdata/fuzz/FuzzOpenSubstrate equal to
// fuzzSeeds (rewrite it with MINOANER_UPDATE_FUZZ_CORPUS=1) and runs the
// fuzz property on every seed, so plain `go test` covers the corpus.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenSubstrate")
	for name, data := range fuzzSeeds(t) {
		entry := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join(dir, name)
		if os.Getenv("MINOANER_UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, entry, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
			t.Errorf("corpus entry %s is missing or stale (%v)", name, err)
		}
		t.Run(name, func(t *testing.T) { checkOpen(t, data) })
	}
}

// A γ₁ edge count below zero, or above what n1 rows of at most min(K, n2)
// edges hold, is refused by both decoders as a corrupt file, and so is a
// meta section without one.
func TestGamma1CountOutOfRangeIsCorrupt(t *testing.T) {
	seeds := fuzzSeeds(t)
	for _, name := range []string{"gamma1-count-over", "gamma1-count-neg", "gamma1-count-missing"} {
		if _, err := ReadSubstrate(seeds[name]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadSubstrate = %v, want ErrCorrupt", name, err)
		}
		path := filepath.Join(t.TempDir(), name+".snap")
		if err := os.WriteFile(path, seeds[name], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSubstrate(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenSubstrate = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoaderSurvivesEveryFlip is the exhaustive little brother of the fuzz
// target: every byte of the tiny snapshot flipped, every aligned word set to
// all ones, each image decoded and — when it decodes — used. A panic on a
// worker goroutine takes the test binary down, which is the failure.
func TestLoaderSurvivesEveryFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 10⁴ images")
	}
	img := snapshotBytes(t, tinySubstrate(t))
	try := func(data []byte) {
		if read, err := ReadSubstrate(data); err == nil {
			exercise(read.Substrate())
		}
	}
	for off := range img {
		data := bytes.Clone(img)
		data[off] ^= 0x81
		try(data)
	}
	for off := 0; off+4 <= len(img); off += 4 {
		data := bytes.Clone(img)
		binary.LittleEndian.PutUint32(data[off:], 0xffffffff)
		try(data)
	}
}

// An edge target that names no entity passes the loader — it checks shapes,
// not 10⁸ bytes of IDs — and is refused by whoever walks it first: the batch
// resolution, every time it is asked, before any kernel runs.
func TestDamagedTargetIsRefusedAtFirstWalk(t *testing.T) {
	read, err := ReadSubstrate(fuzzSeeds(t)["beta2-target-neg"])
	if err != nil {
		t.Fatalf("a damaged target must not fail the load: %v", err)
	}
	for round := 0; round < 2; round++ {
		if _, err := core.ResolveWith(context.Background(), read.Substrate(), core.Config{Workers: 2}); !errors.Is(err, graph.ErrOutOfRange) {
			t.Fatalf("round %d: ResolveWith = %v, want ErrOutOfRange", round, err)
		}
	}
	if _, err := core.ResolveWith(context.Background(), read.Substrate(), core.Config{TopK: 3}); !errors.Is(err, graph.ErrOutOfRange) {
		t.Fatalf("a private graph over the damaged substrate = %v, want ErrOutOfRange", err)
	}
}

// An edge weight that is not strictly positive and finite passes the loader
// like a damaged target does, and is refused by every walk that reads it:
// the batch resolution, every time, for a β₂ weight its rule R4 reads, and a
// replay whose γ row follows a damaged adjacency edge. A batch resolution
// that reads no γ₁ row — the tiny pair's R2 matches every entity, and R4
// finds each edge in β — is not affected by the damaged adjacency edge. The
// whole-graph check refuses both: Verify, and a private graph.
func TestDamagedWeightIsRefusedAtFirstWalk(t *testing.T) {
	ctx := context.Background()
	built, err := core.ResolveWith(ctx, tinySubstrate(t), core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		seed    string
		resolve bool // whether the batch resolution reads the damaged weight
	}{{"beta2-weight-nan", true}, {"adj1-weight-nan", false}} {
		read, err := ReadSubstrate(fuzzSeeds(t)[c.seed])
		if err != nil {
			t.Fatalf("%s: a damaged weight must not fail the load: %v", c.seed, err)
		}
		sub := read.Substrate()
		for round := 0; round < 2; round++ {
			out, err := core.ResolveWith(ctx, sub, core.Config{Workers: 2})
			switch {
			case c.resolve && !errors.Is(err, graph.ErrBadWeight):
				t.Fatalf("%s round %d: ResolveWith = %v, want ErrBadWeight", c.seed, round, err)
			case !c.resolve && err != nil:
				t.Fatalf("%s round %d: ResolveWith, which reads no γ₁ row, failed: %v", c.seed, round, err)
			case !c.resolve && !reflect.DeepEqual(out.Matches, built.Matches):
				t.Fatalf("%s round %d: ResolveWith gave %d matches, the built pair %d", c.seed, round, len(out.Matches), len(built.Matches))
			}
		}
		if !c.resolve {
			// t1:e1's top neighbor is t1:e0, whose first adjacency edge is the damaged one.
			if _, err := core.ReplayEntity(ctx, sub, 1, core.Config{Workers: 1}); !errors.Is(err, graph.ErrBadWeight) {
				t.Errorf("%s: a replay through the damaged edge = %v, want ErrBadWeight", c.seed, err)
			}
		}
		if _, err := core.ResolveWith(ctx, sub, core.Config{TopK: 3}); !errors.Is(err, graph.ErrBadWeight) {
			t.Errorf("%s: a private graph over the damaged substrate = %v, want ErrBadWeight", c.seed, err)
		}
		if err := sub.Verify(); !errors.Is(err, graph.ErrBadWeight) {
			t.Errorf("%s: Verify = %v, want ErrBadWeight", c.seed, err)
		}
	}
}

// FuzzOpenSubstrate feeds arbitrary bytes to both decoders. The loader
// installs views over bytes it did not write, so the property is the one an
// operator relies on: a typed error, or a substrate that can be used.
func FuzzOpenSubstrate(f *testing.F) {
	f.Fuzz(checkOpen)
}

func checkOpen(t *testing.T, data []byte) {
	typed := func(err error) bool {
		for _, want := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrMisaligned, ErrCorrupt} {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}
	read, err := ReadSubstrate(bytes.Clone(data))
	if err != nil {
		if !typed(err) {
			t.Fatalf("ReadSubstrate: untyped error %v", err)
		}
	} else {
		exercise(read.Substrate())
	}
	path := filepath.Join(t.TempDir(), "fuzz.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opened, openErr := OpenSubstrate(path)
	if (openErr == nil) != (err == nil) {
		t.Fatalf("OpenSubstrate: %v, ReadSubstrate: %v", openErr, err)
	}
	if openErr != nil {
		if !typed(openErr) {
			t.Fatalf("OpenSubstrate: untyped error %v", openErr)
		}
		return
	}
	exercise(opened.Substrate())
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
}

// exercise runs what a loaded substrate exists for: a newly described
// entity — first, so that its query derives the token index — a batch
// resolution over the installed graph and one over a private graph, a
// replayed entity, one description, the block collections read member by
// member, and a copy of the whole substrate. Results are not judged —
// flipped bytes that stay in range describe some other, valid pair — only
// that each call returns: an error is an answer too (an ID the loader leaves
// to its first reader to check, a URI a damaged permutation no longer
// finds). Together the calls reach every check the loader defers.
func exercise(sub *core.Substrate) {
	ctx := context.Background()
	cfg := core.Config{Workers: 1}
	k1, k2 := sub.K1(), sub.K2()
	describe := core.EntityQuery{
		URI:   "q:new",
		Attrs: []kb.AttributeValue{{Attribute: "name", Value: "item 3 alpha common"}},
	}
	if k1.Len() > 0 {
		describe.Objects = []core.QueryObject{{Predicate: "next", Object: k1.URI(0)}}
	}
	_, _ = core.QueryEntity(ctx, sub, describe, cfg)
	members := func(c *blocking.Collection) {
		for _, b := range c.Blocks {
			for _, e := range b.E1 {
				_ = k1.URI(e)
			}
			for _, e := range b.E2 {
				_ = k2.URI(e)
			}
		}
	}
	if out, err := core.ResolveWith(ctx, sub, cfg); err == nil {
		members(out.NameBlocks)
	}
	_, _ = core.ResolveWith(ctx, sub, core.Config{Workers: 1, TopK: 3}) // a private graph, built from every input
	members(sub.NameBlocks())
	members(sub.TokenBlocks())
	if k1.Len() > 0 {
		last := kb.EntityID(k1.Len() - 1)
		if d, err := k1.Describe(last); err == nil {
			for _, t := range d.TokenIDs() {
				_ = d.Dict().TokenString(t)
			}
			for _, r := range d.Relations {
				_ = k1.URI(r.Object)
			}
		}
		_, _ = core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, last), cfg)
	}
	_ = WriteSubstrate(io.Discard, sub)
}
