// Snapshot encoder: WriteSubstrate serializes a built substrate — both KBs,
// dictionaries, columnar spans, ranks, top-neighbor rows, name blocks, and
// (always) the graph with the query path's name index — into the sectioned
// format described in format.go. A file depends only on the pair and its
// build configuration: section order and padding bytes are pinned, edge
// records have no padding of their own, and nothing records how long the
// build took, so builds of one pair under one Config write the same bytes
// on any number of processors.
package snapshot

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// metaV1 is the JSON payload of the meta section: everything scalar or
// irregular that does not justify a binary column.
type metaV1 struct {
	K1Name    string `json:"k1_name"`
	K2Name    string `json:"k2_name"`
	K1Triples int    `json:"k1_triples"`
	K2Triples int    `json:"k2_triples"`

	// Config is the NORMALIZED build configuration, installed verbatim on
	// load (re-normalizing would re-enable a disabled Block Purging), less
	// Workers, which JSON leaves out: an opened pair runs on the workers of
	// whoever uses it.
	Config core.Config `json:"config"`

	NameAttrs1 []string `json:"name_attrs1,omitempty"`
	NameAttrs2 []string `json:"name_attrs2,omitempty"`

	PurgedBlocks   int   `json:"purged_blocks"`
	PurgeThreshold int64 `json:"purge_threshold"`

	// Gamma1Edges is the graph's E1-side γ edge count, which the file
	// holds no rows to count from. Every writer stores it, so a meta
	// section without the key is corrupt: a pointer tells absent from 0.
	Gamma1Edges *int `json:"gamma1_edges"`
}

// section is one entry of the section table with its bytes.
type section struct {
	id   uint32
	data []byte
}

// group is a run of consecutive sections prepared together. count is how
// many sections prepare returns — the table is sized before any group has
// run, so the count is declared, and checked when the group is written.
type group struct {
	count   int
	prepare func() []section
}

func pad8(n int) int64 { return int64((n + 7) &^ 7) }

// Sections of a frozen string table, with and without its sorted permutation.
const (
	lookupTable = 3
	plainTable  = 2
	// kbSections is what kbGroup emits for one KB.
	kbSections = lookupTable + 13
)

func frozenSections(base uint32, fs *kb.FrozenStrings) []section {
	blob, off, sorted := fs.Parts()
	secs := []section{{base + frozenBlob, blob}, {base + frozenOff, i64Bytes(off)}}
	if sorted != nil {
		secs = append(secs, section{base + frozenSorted, u32Bytes(sorted)})
	}
	return secs
}

func idRows(offID, flatID uint32, r graph.Rows[kb.EntityID]) []section {
	return []section{{offID, i64Bytes(r.Off)}, {flatID, i32Bytes(r.Flat)}}
}

func edgeRows(offID, flatID uint32, r graph.Rows[graph.Edge]) []section {
	return []section{{offID, i64Bytes(r.Off)}, {flatID, edgeBytes(r.Flat)}}
}

// kbGroup decomposes one KB. The columns and the URI table are the KB's own
// arrays (the URIs gain their sorted permutation); the token and statement
// tables are still derived per description here.
func kbGroup(base uint32, k *kb.KB) group {
	return group{kbSections, func() []section {
		p := k.SnapshotParts()
		blob, off, _ := p.StmtVals.Parts()
		return append(frozenSections(base+kbURIBlob, p.URIs),
			section{base + kbTokenOff, i64Bytes(p.TokenOff)},
			section{base + kbTokens, u32Bytes(p.Tokens)},
			section{base + kbRelOff, i32Bytes(p.RelOff)},
			section{base + kbRelPred, u32Bytes(p.RelPred)},
			section{base + kbRelObj, i32Bytes(p.RelObj)},
			section{base + kbAttrOff, i32Bytes(p.AttrOff)},
			section{base + kbAttrName, u32Bytes(p.AttrName)},
			section{base + kbAttrVal, u32Bytes(p.AttrVal)},
			section{base + kbStmtAttrName, u32Bytes(p.StmtAttrName)},
			section{base + kbStmtValBlob, blob},
			section{base + kbStmtValOff, i64Bytes(off)},
			section{base + kbStmtRelPred, u32Bytes(p.StmtRelPred)},
			section{base + kbStmtRelObj, i32Bytes(p.StmtRelObj)})
	}}
}

func schemaGroup(predsBase, attrsBase, valsBase uint32, sch *kb.Schema) group {
	return group{3 * lookupTable, func() []section {
		preds, attrs, vals := sch.Freeze()
		return slices.Concat(frozenSections(predsBase, preds), frozenSections(attrsBase, attrs), frozenSections(valsBase, vals))
	}}
}

func dictGroup(base uint32, dict *kb.Interner) group {
	return group{lookupTable, func() []section { return frozenSections(base, dict.Freeze()) }}
}

// ready wraps sections that need no preparation.
func ready(secs ...[]section) group {
	all := slices.Concat(secs...)
	return group{len(all), func() []section { return all }}
}

// WriteSubstrate serializes sub, including its graph and query-path name
// index (both are built first, by the prewarm, if nothing has needed them
// yet — snapshots exist to make warm starts instant, so they always ship;
// the name index is built sorted, so it is written as it is). On
// little-endian hosts the graph, KB-column, dictionary and name-block
// sections are the bytes of the arrays the substrate already holds. What is
// still derived here is prepared group by group on the substrate's workers
// while this goroutine writes finished groups in table order: the
// dictionaries' and URI tables' sorted permutations, by the radix
// string-order kernel (kb.FreezeStrings), and a built KB's per-description
// tables — its token CSR and statement arrays, whose attribute and predicate
// IDs are memoized per name string rather than looked up per statement. A
// writer that can seek is streamed to (the table is patched in at the end);
// any other gets the same bytes once every group is ready.
//
// A substrate opened from a file is verified first (core.Substrate.Verify):
// a damaged one is refused, not copied.
func WriteSubstrate(w io.Writer, sub *core.Substrate) error {
	if err := sub.Verify(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	ctx := context.Background()
	qs, err := sub.ExportQueryState(ctx)
	if err != nil {
		return fmt.Errorf("snapshot: export query state: %w", err)
	}
	p := sub.Parts()
	dict1, dict2 := p.K1.TokenDict(), p.K2.TokenDict()
	schema1, schema2 := p.K1.Schema(), p.K2.Schema()

	flags := uint32(flagQueryState)
	if dict2 == dict1 {
		flags |= flagSharedDict
	}
	if schema2 == schema1 {
		flags |= flagSharedSchema
	}

	meta := metaV1{
		K1Name: p.K1.Name(), K2Name: p.K2.Name(),
		K1Triples: p.K1.Triples(), K2Triples: p.K2.Triples(),
		Config:     p.Config,
		NameAttrs1: p.NameAttrs1, NameAttrs2: p.NameAttrs2,
		PurgedBlocks: p.PurgedBlocks, PurgeThreshold: p.PurgeThreshold,
		Gamma1Edges: &qs.Graph.Gamma1Edges,
	}
	metaBytes, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}

	plan := []group{ready([]section{{secMeta, metaBytes}}), dictGroup(dict1Base, dict1)}
	if flags&flagSharedDict == 0 {
		plan = append(plan, dictGroup(dict2Base, dict2))
	}
	plan = append(plan, schemaGroup(schema1PredsBase, schema1AttrsBase, schema1ValsBase, schema1))
	if flags&flagSharedSchema == 0 {
		plan = append(plan, schemaGroup(schema2PredsBase, schema2AttrsBase, schema2ValsBase, schema2))
	}
	plan = append(plan, kbGroup(kb1Base, p.K1), kbGroup(kb2Base, p.K2),
		group{6 + plainTable + 4, func() []section {
			return slices.Concat(
				[]section{{secRanks1, i32Bytes(p.Ranks1)}, {secRanks2, i32Bytes(p.Ranks2)}},
				idRows(secTop1Off, secTop1Flat, p.Top1),
				idRows(secTop2Off, secTop2Flat, p.Top2),
				frozenSections(secNameKeys, p.NameBlocks.Keys),
				idRows(secNameE1Off, secNameE1Flat, p.NameBlocks.E1),
				idRows(secNameE2Off, secNameE2Flat, p.NameBlocks.E2))
		}})
	g := qs.Graph
	plan = append(plan,
		// The graph's E1 top-neighbor rows are the substrate's own (already
		// in secTop1*).
		ready(idRows(secAlpha1Off, secAlpha1Flat, g.Alpha1), idRows(secAlpha2Off, secAlpha2Flat, g.Alpha2),
			edgeRows(secBeta1Off, secBeta1Edges, g.Beta1), edgeRows(secBeta2Off, secBeta2Edges, g.Beta2),
			edgeRows(secGamma2Off, secGamma2Edges, g.Gamma2),
			edgeRows(secAdj1Off, secAdj1Edges, g.Adj1), idRows(secIn2Off, secIn2Flat, g.In2)),
		group{plainTable + 4, func() []section { return nameUsageSections(qs.Names) }})

	return writeGroups(ctx, w, flags, plan, parallel.New(p.Config.Workers))
}

// writeGroups lays out header, section table and 8-padded section bodies.
// The groups are prepared on eng, claimed in table order; this goroutine
// writes each as soon as it and every earlier one are done, and drops it.
func writeGroups(ctx context.Context, w io.Writer, flags uint32, plan []group, eng *parallel.Engine) error {
	count := 0
	for _, g := range plan {
		count += g.count
	}
	tableEnd := int64(headerSize) + int64(count)*tableEntry
	head := make([]byte, tableEnd)
	copy(head, magic[:])
	binary.LittleEndian.PutUint32(head[8:], formatVersion)
	binary.LittleEndian.PutUint32(head[12:], flags)
	binary.LittleEndian.PutUint32(head[16:], uint32(count))

	prepared := make([][]section, len(plan))
	done := make([]chan struct{}, len(plan))
	for i := range done {
		done[i] = make(chan struct{})
	}
	ctx, cancel := context.WithCancel(ctx)
	producer := make(chan struct{})
	go func() {
		defer close(producer)
		// One group per claim: the chunked schedule hands them out in order.
		_ = eng.Chunked().ForCtx(ctx, len(plan), func(i int) error {
			prepared[i] = plan[i].prepare()
			close(done[i])
			return nil
		})
	}()
	defer func() {
		cancel()
		<-producer
	}()

	entry, off := 0, tableEnd // headerSize and tableEntry are both multiples of 8
	lay := func(i int) error {
		<-done[i]
		if len(prepared[i]) != plan[i].count {
			return fmt.Errorf("snapshot: group %d prepared %d sections, declared %d", i, len(prepared[i]), plan[i].count)
		}
		for _, s := range prepared[i] {
			e := head[headerSize+entry*tableEntry:]
			binary.LittleEndian.PutUint32(e, s.id)
			binary.LittleEndian.PutUint64(e[8:], uint64(off))
			binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
			off += pad8(len(s.data))
			entry++
		}
		return nil
	}
	seeker, streaming := w.(io.WriteSeeker)
	if !streaming {
		for i := range plan {
			if err := lay(i); err != nil {
				return err
			}
		}
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	var zeros [8]byte
	for i := range plan {
		if streaming {
			if err := lay(i); err != nil {
				return err
			}
		}
		for _, s := range prepared[i] {
			if _, err := w.Write(s.data); err != nil {
				return err
			}
			if p := pad8(len(s.data)) - int64(len(s.data)); p > 0 {
				if _, err := w.Write(zeros[:p]); err != nil {
					return err
				}
			}
		}
		prepared[i] = nil
	}
	if !streaming {
		return nil
	}
	if _, err := seeker.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := seeker.Seek(0, io.SeekEnd)
	return err
}

func nameUsageSections(u core.NameUsages) []section {
	return append(frozenSections(secNamesText, u.Names),
		section{secNamesN1, i32Bytes(u.N1)}, section{secNamesN2, i32Bytes(u.N2)},
		section{secNamesE1, i32Bytes(u.E1)}, section{secNamesE2, i32Bytes(u.E2)})
}

// fileSink is the temp file behind its write buffer: small sections and
// padding coalesce, large ones pass through, and a seek flushes first.
type fileSink struct {
	*bufio.Writer
	f *os.File
}

func (s fileSink) Seek(offset int64, whence int) (int64, error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	return s.f.Seek(offset, whence)
}

// WriteSubstrateFile writes the snapshot to path atomically (temp file in the
// same directory, then rename).
func WriteSubstrateFile(path string, sub *core.Substrate) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := WriteSubstrate(fileSink{bw, f}, sub); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
