// Snapshot decoder: OpenSubstrate memory-maps a snapshot file and
// reinterprets its sections in place — every row set and string table
// installs as a view, so an open allocates per section, not per entity —
// while ReadSubstrate decodes from any byte slice with explicit element
// copies (the portable and cross-endian path). Both install the persisted
// query state, so the first QueryEntity after a load pays no graph
// construction.
//
// The open checks structure: the header, the section table, section sizes,
// offset tables, the meta section's keys and the graph's shape
// (ErrTruncated, ErrMisaligned, ErrCorrupt). What would take a walk over a
// whole section — entity and dictionary IDs, sorted permutations, string
// offsets, the name index's order — is left to deferred checks that the
// first reader of each section runs (kb.ErrCorrupt). The graph's targets
// and weights are checked by whoever reads a row, as it reads it: the batch
// resolve and the query kernels (graph.ErrOutOfRange, graph.ErrBadWeight).
// core.Substrate.Verify runs every check over everything.
package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"unsafe"

	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// Loaded is an open snapshot: the substrate plus the backing bytes (possibly
// a memory mapping).
type Loaded struct {
	sub    *core.Substrate
	data   []byte
	mapped bool
}

// Substrate returns the loaded substrate. It aliases the snapshot bytes and
// must not be used after Close.
func (l *Loaded) Substrate() *core.Substrate { return l.sub }

// Mapped reports whether the substrate is served from a memory mapping
// (as opposed to heap copies).
func (l *Loaded) Mapped() bool { return l.mapped }

// Close releases the mapping, if any. The substrate must have drained all
// queries first: after Close, slices that aliased the mapping fault on
// access. The server's registry proves the drain by counting references
// (server.Registry.Acquire / Pair.Release) and closes on the last release.
func (l *Loaded) Close() error {
	if !l.mapped {
		return nil
	}
	l.mapped = false
	data := l.data
	l.data, l.sub = nil, nil
	return unmap(data)
}

// OpenSubstrate opens a snapshot file, preferring a read-only memory mapping
// with in-place reinterpretation. It falls back to a heap read if mapping
// fails, and to the copying decoder on big-endian hosts.
func OpenSubstrate(path string) (*Loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, mapped, err := mapFile(f, st.Size())
	if err != nil || data == nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		mapped = false
	}
	copyMode := !hostLittleEndian() ||
		(len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0)
	sub, derr := decode(data, copyMode)
	if derr != nil {
		if mapped {
			unmap(data)
		}
		return nil, derr
	}
	return &Loaded{sub: sub, data: data, mapped: mapped}, nil
}

// ReadSubstrate decodes a snapshot image from memory with the portable
// copying decoder (numeric sections are decoded element by element; string
// blobs still alias data, which the caller must keep immutable).
func ReadSubstrate(data []byte) (*Loaded, error) {
	sub, err := decode(data, true)
	if err != nil {
		return nil, err
	}
	return &Loaded{sub: sub, data: data}, nil
}

func decode(data []byte, copyMode bool) (*core.Substrate, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	mb, err := h.section(secMeta)
	if err != nil {
		return nil, err
	}
	var meta metaV1
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if meta.Gamma1Edges == nil {
		return nil, fmt.Errorf("%w: meta: no gamma1_edges", ErrCorrupt)
	}

	dict1, err := decodeDict(h, copyMode, dict1Base, "dict1")
	if err != nil {
		return nil, err
	}
	dict2 := dict1
	if h.flags&flagSharedDict == 0 {
		if dict2, err = decodeDict(h, copyMode, dict2Base, "dict2"); err != nil {
			return nil, err
		}
	}
	schema1, err := decodeSchema(h, copyMode, schema1PredsBase, schema1AttrsBase, schema1ValsBase, "schema1")
	if err != nil {
		return nil, err
	}
	schema2 := schema1
	if h.flags&flagSharedSchema == 0 {
		if schema2, err = decodeSchema(h, copyMode, schema2PredsBase, schema2AttrsBase, schema2ValsBase, "schema2"); err != nil {
			return nil, err
		}
	}

	// Every remaining section installs as a view, so the open does no work
	// per entity beyond reading offset tables.
	k1, err := decodeKB(h, copyMode, kb1Base, meta.K1Name, meta.K1Triples, dict1, schema1)
	if err != nil {
		return nil, fmt.Errorf("kb1: %w", err)
	}
	k2, err := decodeKB(h, copyMode, kb2Base, meta.K2Name, meta.K2Triples, dict2, schema2)
	if err != nil {
		return nil, fmt.Errorf("kb2: %w", err)
	}
	ranks1, err := readI32Section[int32](h, copyMode, secRanks1, "ranks1")
	if err != nil {
		return nil, err
	}
	ranks2, err := readI32Section[int32](h, copyMode, secRanks2, "ranks2")
	if err != nil {
		return nil, err
	}
	top1, err := idRowsSection(h, copyMode, secTop1Off, secTop1Flat, "top1")
	if err != nil {
		return nil, err
	}
	top2, err := idRowsSection(h, copyMode, secTop2Off, secTop2Flat, "top2")
	if err != nil {
		return nil, err
	}
	nameBlocks, err := decodeNameBlocks(h, copyMode)
	if err != nil {
		return nil, err
	}

	sub, err := core.SubstrateFromParts(core.SubstrateParts{
		K1: k1, K2: k2, Config: meta.Config,
		NameAttrs1: meta.NameAttrs1, NameAttrs2: meta.NameAttrs2,
		Ranks1: ranks1, Ranks2: ranks2,
		Top1: top1, Top2: top2,
		NameBlocks: nameBlocks, PurgedBlocks: meta.PurgedBlocks, PurgeThreshold: meta.PurgeThreshold,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	if h.flags&flagQueryState != 0 {
		if err := decodeQueryState(h, copyMode, sub, top1, *meta.Gamma1Edges); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// decodeDict reads a frozen dictionary trio; the sorted permutation is
// mandatory (dictionaries are looked up on the query path).
func decodeDict(h *header, copyMode bool, base uint32, what string) (*kb.Interner, error) {
	fs, err := lookupFrozen(h, copyMode, base, what)
	if err != nil {
		return nil, err
	}
	return kb.NewFrozenInterner(fs), nil
}

// lookupFrozen is frozenSection plus a mandatory sorted permutation.
func lookupFrozen(h *header, copyMode bool, base uint32, what string) (*kb.FrozenStrings, error) {
	fs, err := frozenSection(h, copyMode, base, what)
	if err != nil {
		return nil, err
	}
	if _, present := h.optional(base + frozenSorted); !present && fs.Len() > 0 {
		return nil, fmt.Errorf("%w: %s: missing sorted permutation", ErrCorrupt, what)
	}
	return fs, nil
}

func decodeSchema(h *header, copyMode bool, predsBase, attrsBase, valsBase uint32, what string) (*kb.Schema, error) {
	preds, err := lookupFrozen(h, copyMode, predsBase, what+" preds")
	if err != nil {
		return nil, err
	}
	attrs, err := lookupFrozen(h, copyMode, attrsBase, what+" attrs")
	if err != nil {
		return nil, err
	}
	vals, err := lookupFrozen(h, copyMode, valsBase, what+" vals")
	if err != nil {
		return nil, err
	}
	return kb.NewFrozenSchema(preds, attrs, vals), nil
}

func readI32Section[T ~int32](h *header, copyMode bool, id uint32, what string) ([]T, error) {
	b, err := h.section(id)
	if err != nil {
		return nil, err
	}
	return viewI32s[T](b, copyMode, what)
}

func readU32Section[T ~uint32](h *header, copyMode bool, id uint32, what string) ([]T, error) {
	b, err := h.section(id)
	if err != nil {
		return nil, err
	}
	return viewU32s[T](b, copyMode, what)
}

func readI64Section(h *header, copyMode bool, id uint32, what string) ([]int64, error) {
	b, err := h.section(id)
	if err != nil {
		return nil, err
	}
	return viewI64s(b, copyMode, what)
}

func decodeKB(h *header, copyMode bool, base uint32, name string, triples int, dict *kb.Interner, schema *kb.Schema) (*kb.KB, error) {
	p := kb.SnapshotParts{Name: name, Triples: triples, Dict: dict, Schema: schema}
	var err error
	if p.URIs, err = lookupFrozen(h, copyMode, base+kbURIBlob, "uris"); err != nil {
		return nil, err
	}
	if p.TokenOff, err = readI64Section(h, copyMode, base+kbTokenOff, "token offsets"); err != nil {
		return nil, err
	}
	if p.Tokens, err = readU32Section[kb.TokenID](h, copyMode, base+kbTokens, "tokens"); err != nil {
		return nil, err
	}
	if p.RelOff, err = readI32Section[int32](h, copyMode, base+kbRelOff, "relation offsets"); err != nil {
		return nil, err
	}
	if p.RelPred, err = readU32Section[kb.PredID](h, copyMode, base+kbRelPred, "relation predicates"); err != nil {
		return nil, err
	}
	if p.RelObj, err = readI32Section[kb.EntityID](h, copyMode, base+kbRelObj, "relation objects"); err != nil {
		return nil, err
	}
	if p.AttrOff, err = readI32Section[int32](h, copyMode, base+kbAttrOff, "attribute offsets"); err != nil {
		return nil, err
	}
	if p.AttrName, err = readU32Section[kb.AttrID](h, copyMode, base+kbAttrName, "attribute names"); err != nil {
		return nil, err
	}
	if p.AttrVal, err = readU32Section[kb.ValueID](h, copyMode, base+kbAttrVal, "attribute values"); err != nil {
		return nil, err
	}
	if p.StmtAttrName, err = readU32Section[kb.AttrID](h, copyMode, base+kbStmtAttrName, "statement attributes"); err != nil {
		return nil, err
	}
	blob, err := h.section(base + kbStmtValBlob)
	if err != nil {
		return nil, err
	}
	valOff, err := readI64Section(h, copyMode, base+kbStmtValOff, "statement value offsets")
	if err != nil {
		return nil, err
	}
	if p.StmtVals, err = kb.NewFrozenStrings(blob, valOff, nil); err != nil {
		return nil, fmt.Errorf("%w: statement values: %v", ErrCorrupt, err)
	}
	if p.StmtRelPred, err = readU32Section[kb.PredID](h, copyMode, base+kbStmtRelPred, "statement predicates"); err != nil {
		return nil, err
	}
	if p.StmtRelObj, err = readI32Section[kb.EntityID](h, copyMode, base+kbStmtRelObj, "statement objects"); err != nil {
		return nil, err
	}
	k, err := kb.AssembleKB(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return k, nil
}

func decodeNameBlocks(h *header, copyMode bool) (core.NameBlockRows, error) {
	var nb core.NameBlockRows
	var err error
	if nb.Keys, err = frozenSection(h, copyMode, secNameKeys, "name block keys"); err != nil {
		return nb, err
	}
	if nb.E1, err = idRowsSection(h, copyMode, secNameE1Off, secNameE1Flat, "name blocks e1"); err != nil {
		return nb, err
	}
	nb.E2, err = idRowsSection(h, copyMode, secNameE2Off, secNameE2Flat, "name blocks e2")
	return nb, err
}

func decodeQueryState(h *header, copyMode bool, sub *core.Substrate, top1 graph.Rows[kb.EntityID], gamma1Edges int) error {
	// The graph's row sets install as they are stored — two views each, no
	// per-row work; core.InstallQueryState checks their shape and the γ₁
	// edge count's range, and defers the range checks of targets to first
	// use.
	g := &graph.Graph{Top1: top1, K: sub.Config().TopK, Gamma1Edges: gamma1Edges}
	var err error
	for _, r := range []struct {
		rows          *graph.Rows[kb.EntityID]
		offID, flatID uint32
		what          string
	}{
		{&g.Alpha1, secAlpha1Off, secAlpha1Flat, "alpha1"},
		{&g.Alpha2, secAlpha2Off, secAlpha2Flat, "alpha2"},
		{&g.In2, secIn2Off, secIn2Flat, "in2"},
	} {
		if *r.rows, err = idRowsSection(h, copyMode, r.offID, r.flatID, r.what); err != nil {
			return err
		}
	}
	for _, r := range []struct {
		rows          *graph.Rows[graph.Edge]
		offID, flatID uint32
		what          string
	}{
		{&g.Beta1, secBeta1Off, secBeta1Edges, "beta1"},
		{&g.Beta2, secBeta2Off, secBeta2Edges, "beta2"},
		{&g.Gamma2, secGamma2Off, secGamma2Edges, "gamma2"},
		{&g.Adj1, secAdj1Off, secAdj1Edges, "adj1"},
	} {
		if r.rows.Off, err = readI64Section(h, copyMode, r.offID, r.what+" offsets"); err != nil {
			return err
		}
		fb, err := h.section(r.flatID)
		if err != nil {
			return err
		}
		if r.rows.Flat, err = viewEdges(fb, copyMode, r.what); err != nil {
			return err
		}
	}

	var names core.NameUsages
	if names.Names, err = frozenSection(h, copyMode, secNamesText, "name usage text"); err != nil {
		return err
	}
	if names.N1, err = readI32Section[int32](h, copyMode, secNamesN1, "name usage n1"); err != nil {
		return err
	}
	if names.N2, err = readI32Section[int32](h, copyMode, secNamesN2, "name usage n2"); err != nil {
		return err
	}
	if names.E1, err = readI32Section[kb.EntityID](h, copyMode, secNamesE1, "name usage e1"); err != nil {
		return err
	}
	if names.E2, err = readI32Section[kb.EntityID](h, copyMode, secNamesE2, "name usage e2"); err != nil {
		return err
	}
	if err := sub.InstallQueryState(&core.QueryState{Graph: g, Names: names}); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
