// Substrate decomposition for snapshot serialization: SubstrateParts is the
// stable, exported view of everything BuildSubstrate froze — the two KBs,
// the normalized build config, name attributes, relation ranks, top-neighbor
// rows, name blocks and the purged token index — and SubstrateFromParts is
// its inverse. The name lookups are NOT serialized: stats.NewNameLookup is a
// cheap bitset over the (already loaded) schema, so the loader re-derives
// them. QueryState is the second half: the pair's graph and the name-usage
// index of the query path, so a snapshot-loaded substrate resolves in batch
// and answers its first query without re-running graph construction.
package core

import (
	"context"
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
	Top1, Top2             [][]kb.EntityID

	NameBlocks     *blocking.Collection
	TokenIndex     *blocking.TokenIndex
	PurgedBlocks   int
	PurgeThreshold int64

	Timings   Timings
	BuildWall time.Duration
}

// Parts decomposes the substrate for serialization. Slices alias the
// substrate and must be treated as read-only.
func (s *Substrate) Parts() SubstrateParts {
	return SubstrateParts{
		K1: s.k1, K2: s.k2, Config: s.cfg,
		NameAttrs1: s.nameAttrs1, NameAttrs2: s.nameAttrs2,
		Ranks1: s.ranks1, Ranks2: s.ranks2,
		Top1: s.top1, Top2: s.top2,
		NameBlocks: s.nameBlocks, TokenIndex: s.tokenIx,
		PurgedBlocks: s.purgedBlocks, PurgeThreshold: s.purgeThreshold,
		Timings: s.timings, BuildWall: s.buildWall,
	}
}

// RelationRanks returns the dense per-predicate importance ranks of each KB.
func (s *Substrate) RelationRanks() (ranks1, ranks2 []int32) { return s.ranks1, s.ranks2 }

// TopNeighbors returns the per-entity top-neighbor rows of each KB.
func (s *Substrate) TopNeighbors() (top1, top2 [][]kb.EntityID) { return s.top1, s.top2 }

// SubstrateFromParts reassembles an immutable substrate (the inverse of
// Parts). The name lookups are re-derived from the loaded schema; everything
// else is installed as-is, so ResolveWith and QueryEntity over the result
// are byte-identical to the originally built substrate.
func SubstrateFromParts(p SubstrateParts) (*Substrate, error) {
	if p.K1 == nil || p.K2 == nil || p.NameBlocks == nil || p.TokenIndex == nil {
		return nil, fmt.Errorf("core: substrate from parts: missing KB, name blocks or token index")
	}
	if len(p.Top1) != p.K1.Len() || len(p.Top2) != p.K2.Len() {
		return nil, fmt.Errorf("core: substrate from parts: top-neighbor rows (%d, %d) disagree with KB sizes (%d, %d)",
			len(p.Top1), len(p.Top2), p.K1.Len(), p.K2.Len())
	}
	if len(p.Ranks1) != p.K1.Schema().Preds() || len(p.Ranks2) != p.K2.Schema().Preds() {
		return nil, fmt.Errorf("core: substrate from parts: relation ranks disagree with schema sizes")
	}
	// Parts may come from a file. The config is installed as it is, so it
	// must be one normalize could have produced; the entity IDs in the parts
	// are range-checked before their first whole walk (verifyLocked).
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
		nameBlocks: p.NameBlocks, tokenIx: p.TokenIndex,
		purgedBlocks: p.PurgedBlocks, purgeThreshold: p.PurgeThreshold,
		timings: p.Timings, buildWall: p.BuildWall,
		unverified: true,
	}, nil
}

// maxStoredWorkers bounds the worker count a stored config may ask engines
// for: scratch is allocated per worker before any work is split.
const maxStoredWorkers = 1 << 12

// NameUsage is the flat form of one name-usage index entry: how many
// entities of each side carry the normalized name, and the sole carrier per
// side when that count is 1 (the only case the α rule consults).
type NameUsage struct {
	Name   string
	N1, N2 int32
	E1, E2 kb.EntityID
}

// QueryState is what a snapshot stores beyond the substrate's parts: the
// pair's disjunctive blocking graph (Gamma1 not materialized — its rows are
// produced on demand) and the name-usage index sorted by name.
type QueryState struct {
	Graph *graph.Graph
	Names []NameUsage
}

// ExportQueryState prewarms the substrate (if needed) and returns its graph
// and name-usage index for serialization. The Names slice is sorted by name.
func (s *Substrate) ExportQueryState(ctx context.Context) (*QueryState, error) {
	st, err := s.queryState(ctx)
	if err != nil {
		return nil, err
	}
	out := &QueryState{Graph: st.g, Names: st.sorted}
	if st.names != nil {
		names := make([]string, 0, len(st.names))
		users := make([]nameUsers, 0, len(st.names))
		for n, u := range st.names {
			names, users = append(names, n), append(users, u)
		}
		out.Names = make([]NameUsage, len(names))
		for i, at := range kb.SortedOrder(names) {
			u := users[at]
			out.Names[i] = NameUsage{Name: names[at], N1: u.n1, N2: u.n2, E1: u.e1, E2: u.e2}
		}
	}
	return out, nil
}

// InstallQueryState installs a previously exported graph and name index, so
// neither ResolveWith nor the first QueryEntity call pays graph construction
// (the snapshot warm-start path). The graph must be pruned to the
// substrate's TopK and laid out for the pair (CheckShape), which is enough
// for the query kernels — they check the rows they touch; its targets are
// range-checked before the first batch resolution walks it whole.
// Names must be sorted by name; α probes then binary-search the slice
// instead of a map. Installing over an already built state replaces it.
func (s *Substrate) InstallQueryState(qs *QueryState) error {
	if qs == nil || qs.Graph == nil {
		return fmt.Errorf("core: install query state: missing graph")
	}
	if qs.Graph.K != s.cfg.TopK {
		return fmt.Errorf("core: install query state: graph pruned to K=%d, substrate to %d", qs.Graph.K, s.cfg.TopK)
	}
	n1, n2 := s.k1.Len(), s.k2.Len()
	if err := qs.Graph.CheckShape(n1, n2); err != nil {
		return fmt.Errorf("core: install query state: %w", err)
	}
	for i, u := range qs.Names {
		if i > 0 && qs.Names[i-1].Name > u.Name {
			return fmt.Errorf("core: install query state: names not sorted at %d", i)
		}
		// The α rule reads a carrier only where it is the sole one.
		if (u.N1 == 1 && (u.E1 < 0 || int(u.E1) >= n1)) || (u.N2 == 1 && (u.E2 < 0 || int(u.E2) >= n2)) {
			return fmt.Errorf("core: install query state: name %d carried by an entity outside the pair", i)
		}
	}
	s.lazyMu.Lock()
	s.graph.Store(nil)
	s.query.Store(s.newQueryState(qs.Graph, nil, qs.Names))
	s.unverified = true
	s.lazyMu.Unlock()
	return nil
}
