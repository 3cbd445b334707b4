package graph

import (
	"context"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// InputFor assembles a complete Algorithm 1 input from two KBs by running
// the upstream statistics and blocking stages with the given parameters:
// nameK name attributes per KB (paper parameter k), topK candidates per node
// per weight (K), and relN top relations per entity (N). The token index is
// not purged here; callers that need Block Purging purge Input.TokenIndex
// (TokenIndex.PurgeAbove) before building. The pipeline builds its input
// from a substrate instead; this is the fixture of the graph and matching
// tests. The stages run under a background context, which cannot be
// cancelled, so none of them can fail.
func InputFor(e *parallel.Engine, k1, k2 *kb.KB, nameK, topK, relN int) Input {
	ctx := context.Background()
	names := func(k *kb.KB) *stats.NameLookup {
		attrs, _ := stats.NameAttributesCtx(ctx, e, k, nameK)
		return stats.NewNameLookup(k, attrs)
	}
	top := func(k *kb.KB) [][]kb.EntityID {
		ri, _ := stats.RelationImportancesCtx(ctx, e, k)
		rows, _ := stats.TopNeighborsRanksCtx(ctx, e, k, stats.RelationRanks(k, ri), relN)
		return rows
	}
	nameIx, _ := blocking.NewNameIndexLookupsCtx(ctx, e, names(k1), names(k2))
	tokenIx, _ := blocking.NewTokenIndexCtx(ctx, e, k1, k2)
	return Input{
		K1: k1, K2: k2,
		NameBlocks: nameIx.Collection(),
		TokenIndex: tokenIx,
		Top1:       top(k1),
		Top2:       top(k2),
		K:          topK,
	}
}
