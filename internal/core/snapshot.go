// Substrate decomposition for snapshot serialization: SubstrateParts is the
// stable, exported view of what BuildSubstrate froze — the two KBs, the
// normalized build config, name attributes, relation ranks, top-neighbor
// rows, the name table and the purge of the token index — and
// SubstrateFromParts is its inverse. The name lookups and the token index
// are NOT serialized: stats.NewNameLookup is a cheap bitset over the
// (already loaded) schema, so the loader re-derives them, and the token
// index is the inverted KB token columns, derived on first use. The pair's
// graph is the second half (ExportGraph, InstallGraph), so a
// snapshot-loaded substrate resolves in batch and answers its first query
// without re-running graph construction.
//
// Every row set travels flat (graph.Rows, kb.FrozenStrings), so assembling
// a substrate from a file's views allocates per section, not per entity or
// per name. Only shapes are checked on assembly; the ID ranges, permutations
// and orders that would take a walk over a whole section are deferred
// checks (kb.Deferred), run by the first reader of that section.
package core

import (
	"context"
	"errors"
	"fmt"

	"minoaner/internal/blocking"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// SubstrateParts is the flat decomposition of one substrate. Config must be
// the normalized configuration of the original build (it is installed
// verbatim — re-normalizing would turn a disabled Block Purging back on).
type SubstrateParts struct {
	K1, K2 *kb.KB
	Config Config

	NameAttrs1, NameAttrs2 []string
	Ranks1, Ranks2         []int32
	Top1, Top2             graph.Rows[kb.EntityID]

	NameTable      NameTable
	PurgedBlocks   int
	PurgeThreshold int64
}

// NameTable is the pair's name evidence (§3.1) in the flat form a snapshot
// stores: every normalized name that at least one E2 entity carries, sorted
// by name, with row i of E1 and of E2 listing the entities of that KB that
// carry Keys.At(i), by ID. The name blocks are its rows with both sides
// non-empty; the query path's α probe reads a row's length, and its one
// carrier where it has one. A name no E2 entity carries is left out: α
// needs exactly one E2 carrier, and a name block one on each side.
type NameTable struct {
	Keys   *kb.FrozenStrings
	E1, E2 graph.Rows[kb.EntityID]
}

// nameTableOf lays the names the index's E2 side carries out flat, in key
// order, each row sized once.
func nameTableOf(ix *blocking.NameIndex) NameTable {
	slots, keys := ix.Carried()
	t := NameTable{Keys: kb.FreezeStrings(keys, false)}
	t.E1.Off, t.E2.Off = make([]int64, len(slots)+1), make([]int64, len(slots)+1)
	for i, s := range slots {
		e1, e2 := ix.Members(s)
		t.E1.Off[i+1], t.E2.Off[i+1] = t.E1.Off[i]+int64(len(e1)), t.E2.Off[i]+int64(len(e2))
	}
	t.E1.Flat, t.E2.Flat = make([]kb.EntityID, 0, t.E1.Off[len(slots)]), make([]kb.EntityID, 0, t.E2.Off[len(slots)])
	for _, s := range slots {
		e1, e2 := ix.Members(s)
		t.E1.Flat, t.E2.Flat = append(t.E1.Flat, e1...), append(t.E2.Flat, e2...)
	}
	return t
}

// Parts decomposes the substrate for serialization. Slices alias the
// substrate and must be treated as read-only.
func (s *Substrate) Parts() SubstrateParts {
	return SubstrateParts{
		K1: s.k1, K2: s.k2, Config: s.cfg,
		NameAttrs1: s.nameAttrs1, NameAttrs2: s.nameAttrs2,
		Ranks1: s.ranks1, Ranks2: s.ranks2,
		Top1: s.top1, Top2: s.top2,
		NameTable: s.names, PurgedBlocks: s.purgedBlocks, PurgeThreshold: s.purgeThreshold,
	}
}

// RelationRanks returns the dense per-predicate importance ranks of each KB.
func (s *Substrate) RelationRanks() (ranks1, ranks2 []int32) { return s.ranks1, s.ranks2 }

// TopNeighbors returns the per-entity top-neighbor rows of each KB. The rows
// alias the substrate's flat arrays.
func (s *Substrate) TopNeighbors() (top1, top2 [][]kb.EntityID) {
	return s.top1.Nested(), s.top2.Nested()
}

// SubstrateFromParts reassembles an immutable substrate (the inverse of
// Parts). The name lookups are re-derived from the loaded schema, and the
// purged token index from the KBs' token columns by its first reader
// (TokenIndex, which checks it against PurgedBlocks and PurgeThreshold);
// everything else is installed as-is, so ResolveWith and QueryEntity over
// the result are byte-identical to the originally built substrate. Parts may
// come from a file: their shapes are checked here, and the entity IDs in the
// top rows, and the name table's keys, order and members, by deferred
// checks, before the first walk over each (Verify runs them all).
func SubstrateFromParts(p SubstrateParts) (*Substrate, error) {
	nt := p.NameTable
	if p.K1 == nil || p.K2 == nil || nt.Keys == nil {
		return nil, fmt.Errorf("core: substrate from parts: missing KB or name table")
	}
	n1, n2 := p.K1.Len(), p.K2.Len()
	if err := errors.Join(p.Top1.CheckShape(n1, "top1"), p.Top2.CheckShape(n2, "top2"),
		nt.E1.CheckShape(nt.Keys.Len(), "name table e1"), nt.E2.CheckShape(nt.Keys.Len(), "name table e2")); err != nil {
		return nil, fmt.Errorf("core: substrate from parts: %w", err)
	}
	if len(p.Ranks1) != p.K1.Schema().Preds() || len(p.Ranks2) != p.K2.Schema().Preds() {
		return nil, fmt.Errorf("core: substrate from parts: relation ranks disagree with schema sizes")
	}
	// The config is installed as it is, so it must be one normalize could
	// have produced.
	if c := p.Config; c.TopK <= 0 || c.NameK < 0 || c.RelN < 0 {
		return nil, fmt.Errorf("core: substrate from parts: config k=%d K=%d N=%d out of range", c.NameK, c.TopK, c.RelN)
	}
	return &Substrate{
		k1: p.K1, k2: p.K2, cfg: p.Config,
		nameAttrs1: p.NameAttrs1, nameAttrs2: p.NameAttrs2,
		names1: stats.NewNameLookup(p.K1, p.NameAttrs1),
		names2: stats.NewNameLookup(p.K2, p.NameAttrs2),
		ranks1: p.Ranks1, ranks2: p.Ranks2,
		top1: p.Top1, top2: p.Top2,
		names: nt, purgedBlocks: p.PurgedBlocks, purgeThreshold: p.PurgeThreshold,

		top1Check: kb.NewDeferred("top1", func() error { return idsBelow(p.Top1.Flat, n1) }),
		top2Check: kb.NewDeferred("top2", func() error { return idsBelow(p.Top2.Flat, n2) }),
		nameCheck: kb.NewDeferred("name table", func() error {
			if err := errors.Join(nt.Keys.Check(), idsBelow(nt.E1.Flat, n1), idsBelow(nt.E2.Flat, n2)); err != nil {
				return err
			}
			// A name listed twice could read as sole-carried in each entry.
			for i := 1; i < nt.Keys.Len(); i++ {
				if nt.Keys.At(i-1) >= nt.Keys.At(i) {
					return fmt.Errorf("names not strictly increasing at %d", i)
				}
			}
			return nil
		}),
	}, nil
}

// idsBelow is kb.IDsBelow as a check: graph.ErrOutOfRange if an ID names
// no entity of the n the column points into.
func idsBelow(ids []kb.EntityID, n int) error {
	if !kb.IDsBelow(ids, n) {
		return graph.ErrOutOfRange
	}
	return nil
}

// ExportGraph prewarms the substrate (if needed) and returns its graph for
// serialization.
func (s *Substrate) ExportGraph(ctx context.Context) (*graph.Graph, error) {
	st, err := s.queryState(ctx)
	if err != nil {
		return nil, err
	}
	return st.g, nil
}

// InstallGraph installs a previously exported graph (Gamma1 not
// materialized — its rows are produced on demand), so neither ResolveWith
// nor the first QueryEntity call pays graph construction (the snapshot
// warm-start path). The graph must be pruned to the substrate's TopK and
// laid out for the pair (CheckShape), which is enough for the query kernels
// and the batch resolution: they check the rows they touch. Its targets are
// checked whole only by Verify and before a private graph is built.
// Installing over an already built state replaces it.
func (s *Substrate) InstallGraph(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("core: install graph: missing graph")
	}
	if g.K != s.cfg.TopK {
		return fmt.Errorf("core: install graph: graph pruned to K=%d, substrate to %d", g.K, s.cfg.TopK)
	}
	n1, n2 := s.k1.Len(), s.k2.Len()
	if err := g.CheckShape(n1, n2); err != nil {
		return fmt.Errorf("core: install graph: %w", err)
	}
	st := s.newQueryState(g)
	st.graphCheck = kb.NewDeferredOn("installed graph", func(e *parallel.Engine) error { return g.CheckTargets(e, n1, n2) })
	s.lazyMu.Lock()
	s.graph.Store(nil)
	s.query.Store(st)
	s.lazyMu.Unlock()
	return nil
}
