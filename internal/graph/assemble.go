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
// per weight (K), and relN top relations per entity (N). Token blocks are
// not purged here; callers that need Block Purging apply it to both
// Input.TokenBlocks (blocking.PurgeAbove) and Input.TokenIndex
// (TokenIndex.PurgeAbove) before building, as the core pipeline does. If
// only the collection is purged, the builder notices the mismatch and derives
// a consistent index view from the collection.
func InputFor(e *parallel.Engine, k1, k2 *kb.KB, nameK, topK, relN int) Input {
	in, _ := InputForCtx(context.Background(), e, k1, k2, nameK, topK, relN)
	return in
}

// InputForCtx is InputFor with cancellation and first-error propagation
// through every upstream stage.
func InputForCtx(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, nameK, topK, relN int) (Input, error) {
	var (
		n1, n2         []string
		ranks1, ranks2 []int32
		nameBlocks     *blocking.Collection
		tokenIx        *blocking.TokenIndex
	)
	// Name discovery, relation statistics and token blocking are mutually
	// independent — run them concurrently as in Figure 4.
	err := e.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			var err error
			n1, err = stats.NameAttributesCtx(sc, e, k1, nameK)
			return err
		},
		func(sc context.Context) error {
			var err error
			n2, err = stats.NameAttributesCtx(sc, e, k2, nameK)
			return err
		},
		func(sc context.Context) error {
			ri, err := stats.RelationImportancesCtx(sc, e, k1)
			ranks1 = stats.RelationRanks(k1, ri)
			return err
		},
		func(sc context.Context) error {
			ri, err := stats.RelationImportancesCtx(sc, e, k2)
			ranks2 = stats.RelationRanks(k2, ri)
			return err
		},
		func(sc context.Context) error {
			var err error
			tokenIx, err = blocking.NewTokenIndexCtx(sc, e, k1, k2)
			return err
		},
	)
	if err != nil {
		return Input{}, err
	}
	if nameBlocks, err = blocking.NameBlocksCtx(ctx, e, k1, k2, n1, n2); err != nil {
		return Input{}, err
	}
	top1, err := stats.TopNeighborsRanksCtx(ctx, e, k1, ranks1, relN)
	if err != nil {
		return Input{}, err
	}
	top2, err := stats.TopNeighborsRanksCtx(ctx, e, k2, ranks2, relN)
	if err != nil {
		return Input{}, err
	}
	return Input{
		K1: k1, K2: k2,
		NameBlocks:  nameBlocks,
		TokenBlocks: tokenIx.Collection(),
		TokenIndex:  tokenIx,
		Top1:        top1,
		Top2:        top2,
		K:           topK,
	}, nil
}
