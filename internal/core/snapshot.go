// Substrate decomposition for snapshot serialization: SubstrateParts is the
// stable, exported view of what BuildSubstrate froze — the two KBs, the
// normalized build config, name attributes, relation ranks, top-neighbor
// rows, name blocks and the purge of the token index — and
// SubstrateFromParts is its inverse. The name lookups and the token index
// are NOT serialized: stats.NewNameLookup is a cheap bitset over the
// (already loaded) schema, so the loader re-derives them, and the token
// index is the inverted KB token columns, derived on first use. QueryState
// is the second half: the pair's graph and the name-usage index of the
// query path, so a snapshot-loaded substrate resolves in batch and answers
// its first query without re-running graph construction.
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
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
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

	NameBlocks     NameBlockRows
	PurgedBlocks   int
	PurgeThreshold int64

	Timings   Timings
	BuildWall time.Duration
}

// NameBlockRows is the name-block collection in the flat form a snapshot
// stores: block i has key Keys.At(i) and members E1.Row(i) and E2.Row(i).
type NameBlockRows struct {
	Keys   *kb.FrozenStrings
	E1, E2 graph.Rows[kb.EntityID]
}

// nameBlockRowsOf lays a name-block collection out flat.
func nameBlockRowsOf(c *blocking.Collection) NameBlockRows {
	keys := make([]string, len(c.Blocks))
	rows1, rows2 := make([][]kb.EntityID, len(c.Blocks)), make([][]kb.EntityID, len(c.Blocks))
	for i, b := range c.Blocks {
		keys[i], rows1[i], rows2[i] = b.Key, b.E1, b.E2
	}
	return NameBlockRows{Keys: kb.FreezeStrings(keys, false), E1: graph.RowsOf(rows1), E2: graph.RowsOf(rows2)}
}

// Parts decomposes the substrate for serialization. Slices alias the
// substrate and must be treated as read-only.
func (s *Substrate) Parts() SubstrateParts {
	return SubstrateParts{
		K1: s.k1, K2: s.k2, Config: s.cfg,
		NameAttrs1: s.nameAttrs1, NameAttrs2: s.nameAttrs2,
		Ranks1: s.ranks1, Ranks2: s.ranks2,
		Top1: s.top1, Top2: s.top2,
		NameBlocks: s.nameRows, PurgedBlocks: s.purgedBlocks, PurgeThreshold: s.purgeThreshold,
		Timings: s.timings, BuildWall: s.buildWall,
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
// top rows and the name blocks by deferred checks, before the first walk
// over each (Verify runs them all).
func SubstrateFromParts(p SubstrateParts) (*Substrate, error) {
	nb := p.NameBlocks
	if p.K1 == nil || p.K2 == nil || nb.Keys == nil {
		return nil, fmt.Errorf("core: substrate from parts: missing KB or name blocks")
	}
	n1, n2 := p.K1.Len(), p.K2.Len()
	if err := errors.Join(p.Top1.CheckShape(n1, "top1"), p.Top2.CheckShape(n2, "top2"),
		nb.E1.CheckShape(nb.Keys.Len(), "name blocks e1"), nb.E2.CheckShape(nb.Keys.Len(), "name blocks e2")); err != nil {
		return nil, fmt.Errorf("core: substrate from parts: %w", err)
	}
	if len(p.Ranks1) != p.K1.Schema().Preds() || len(p.Ranks2) != p.K2.Schema().Preds() {
		return nil, fmt.Errorf("core: substrate from parts: relation ranks disagree with schema sizes")
	}
	// The config is installed as it is, so it must be one normalize could
	// have produced.
	if c := p.Config; c.TopK <= 0 || c.NameK < 0 || c.RelN < 0 || c.Workers < 0 || c.Workers > maxStoredWorkers {
		return nil, fmt.Errorf("core: substrate from parts: config k=%d K=%d N=%d workers=%d out of range", c.NameK, c.TopK, c.RelN, c.Workers)
	}
	return &Substrate{
		k1: p.K1, k2: p.K2, cfg: p.Config,
		nameAttrs1: p.NameAttrs1, nameAttrs2: p.NameAttrs2,
		names1: stats.NewNameLookup(p.K1, p.NameAttrs1),
		names2: stats.NewNameLookup(p.K2, p.NameAttrs2),
		ranks1: p.Ranks1, ranks2: p.Ranks2,
		top1: p.Top1, top2: p.Top2,
		nameRows: nb, purgedBlocks: p.PurgedBlocks, purgeThreshold: p.PurgeThreshold,
		timings: p.Timings, buildWall: p.BuildWall,

		top1Check: kb.NewDeferred("top1", func() error { return idsBelow(p.Top1.Flat, n1) }),
		top2Check: kb.NewDeferred("top2", func() error { return idsBelow(p.Top2.Flat, n2) }),
		nameBlockCheck: kb.NewDeferred("name blocks", func() error {
			return errors.Join(nb.Keys.Check(), idsBelow(nb.E1.Flat, n1), idsBelow(nb.E2.Flat, n2))
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

// maxStoredWorkers bounds the worker count a stored config may ask engines
// for: scratch is allocated per worker before any work is split.
const maxStoredWorkers = 1 << 12

// NameUsages is the name-usage index of the query path in flat columns,
// sorted by name: entry i says how many entities of each side carry the
// normalized name Names.At(i), and the sole carrier per side where that
// count is 1 (the only case the α rule consults).
type NameUsages struct {
	Names  *kb.FrozenStrings
	N1, N2 []int32
	E1, E2 []kb.EntityID
}

// Len returns the number of names.
func (u NameUsages) Len() int { return len(u.N1) }

// QueryState is what a snapshot stores beyond the substrate's parts: the
// pair's disjunctive blocking graph (Gamma1 not materialized — its rows are
// produced on demand) and the name-usage index sorted by name.
type QueryState struct {
	Graph *graph.Graph
	Names NameUsages
}

// ExportQueryState prewarms the substrate (if needed) and returns its graph
// and name-usage index for serialization.
func (s *Substrate) ExportQueryState(ctx context.Context) (*QueryState, error) {
	st, err := s.queryState(ctx)
	if err != nil {
		return nil, err
	}
	return &QueryState{Graph: st.g, Names: st.names}, nil
}

// InstallQueryState installs a previously exported graph and name index, so
// neither ResolveWith nor the first QueryEntity call pays graph construction
// (the snapshot warm-start path). The graph must be pruned to the
// substrate's TopK and laid out for the pair (CheckShape), and the name
// columns of one length, which is enough for the query kernels: they check
// the rows they touch. The graph's targets are checked before the first
// batch resolution walks it whole; the names' order and carriers before the
// first lookup that misses (a hit is exact whatever the order) or when a
// lookup touches a damaged entry. Installing over an already built state
// replaces it.
func (s *Substrate) InstallQueryState(qs *QueryState) error {
	if qs == nil || qs.Graph == nil {
		return fmt.Errorf("core: install query state: missing graph")
	}
	g, names := qs.Graph, qs.Names
	if g.K != s.cfg.TopK {
		return fmt.Errorf("core: install query state: graph pruned to K=%d, substrate to %d", g.K, s.cfg.TopK)
	}
	n1, n2 := s.k1.Len(), s.k2.Len()
	if err := g.CheckShape(n1, n2); err != nil {
		return fmt.Errorf("core: install query state: %w", err)
	}
	if n := names.Len(); names.Names == nil || names.Names.Len() != n || len(names.N2) != n || len(names.E1) != n || len(names.E2) != n {
		return fmt.Errorf("core: install query state: name usage columns of unequal length")
	}
	st := s.newQueryState(g, names)
	st.graphCheck = kb.NewDeferred("installed graph", func() error { return g.CheckTargets(n1, n2) })
	st.namesCheck = kb.NewDeferred("name usage", func() error {
		if err := names.Names.Check(); err != nil {
			return err
		}
		for i := range names.Len() {
			// A name listed twice could read as sole-carried in each entry.
			if i > 0 && names.Names.At(i-1) >= names.Names.At(i) {
				return fmt.Errorf("names not strictly increasing at %d", i)
			}
			// The α rule reads a carrier only where it is the sole one.
			if !names.carriersIn(i, n1, n2) {
				return fmt.Errorf("name %d carried by an entity outside the pair", i)
			}
		}
		return nil
	})
	s.lazyMu.Lock()
	s.graph.Store(nil)
	s.query.Store(st)
	s.lazyMu.Unlock()
	return nil
}

// carriersIn reports whether entry i's sole carriers, where it has them,
// are entities of the pair.
func (u NameUsages) carriersIn(i, n1, n2 int) bool {
	return (u.N1[i] != 1 || (u.E1[i] >= 0 && int(u.E1[i]) < n1)) && (u.N2[i] != 1 || (u.E2[i] >= 0 && int(u.E2[i]) < n2))
}
