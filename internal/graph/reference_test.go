package graph

import (
	"cmp"
	"context"
	"slices"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// The predecessor kernels, kept as the references the property tests and
// the before/after benchmarks pin the flat, scoreboard-based ones against:
// a freshly allocated map per entity, a full sort per row, one slice per row.

// slicesOf is the inverse of RowsOf; empty rows come back nil.
func slicesOf[T any](r Rows[T]) [][]T {
	out := make([][]T, r.Len())
	for i := range out {
		if row := r.Row(i); len(row) > 0 {
			out[i] = slices.Clone(row)
		}
	}
	return out
}

// topK selects the k highest-weighted candidates, breaking ties by entity ID
// for determinism, and returns them sorted by decreasing weight. Zero
// weights are dropped (pruning of trivial edges, §3.3).
func topK(acc map[kb.EntityID]float64, k int) []Edge {
	if len(acc) == 0 || k <= 0 {
		return nil
	}
	edges := make([]Edge, 0, len(acc))
	for to, w := range acc {
		if w > 0 {
			edges = append(edges, NewEdge(to, w))
		}
	}
	slices.SortFunc(edges, refEdgeCmp)
	if len(edges) > k {
		edges = edges[:k]
	}
	return edges
}

// refEdgeCmp is the reference's own statement of the canonical candidate-row
// order: decreasing weight, ties by increasing entity ID.
func refEdgeCmp(a, b Edge) int {
	if a.Weight() != b.Weight() {
		return cmp.Compare(b.Weight(), a.Weight())
	}
	return cmp.Compare(a.To, b.To)
}

// betaRowsMap is the map-based reference of BetaRowsCtx.
func betaRowsMap(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, fromIsE1 bool, k int) ([][]Edge, error) {
	return parallel.MapCtx(ctx, e, from.Len(), func(i int) ([]Edge, error) {
		var acc map[kb.EntityID]float64
		ix.ForEachSharedTokens(from.TokenIDs(kb.EntityID(i)), fromIsE1, func(w float64, others []kb.EntityID) {
			if acc == nil {
				acc = make(map[kb.EntityID]float64, len(others))
			}
			for _, o := range others {
				acc[o] += w
			}
		})
		return topK(acc, k), nil
	})
}

// gammaRowsMap is the map-based reference of gammaRows.
func gammaRowsMap(ctx context.Context, e *parallel.Engine, top [][]kb.EntityID, adj [][]Edge, inOther [][]kb.EntityID, k int) ([][]Edge, error) {
	return parallel.MapCtx(ctx, e, len(top), func(i int) ([]Edge, error) {
		var acc map[kb.EntityID]float64
		for _, na := range top[i] {
			for _, edge := range adj[na] {
				ins := inOther[edge.To]
				if len(ins) == 0 {
					continue
				}
				if acc == nil {
					acc = make(map[kb.EntityID]float64)
				}
				for _, b := range ins {
					acc[b] += edge.Weight()
				}
			}
		}
		return topK(acc, k), nil
	})
}

// mergeAdjacencyAppend is MergeAdjacency as it was: an append per edge, then
// a sort and compaction per row.
func mergeAdjacencyAppend(own [][]Edge, reverse [][]Edge, n int) [][]Edge {
	out := make([][]Edge, n)
	for x := range own {
		out[x] = append(out[x], own[x]...)
	}
	for y := range reverse {
		for _, edge := range reverse[y] {
			out[edge.To] = append(out[edge.To], NewEdge(kb.EntityID(y), edge.Weight()))
		}
	}
	for x := range out {
		if len(out[x]) < 2 {
			continue
		}
		slices.SortFunc(out[x], func(a, b Edge) int {
			if a.To != b.To {
				return cmp.Compare(a.To, b.To)
			}
			return cmp.Compare(b.Weight(), a.Weight())
		})
		dst := out[x][:1]
		for _, edge := range out[x][1:] {
			if edge.To != dst[len(dst)-1].To {
				dst = append(dst, edge)
			}
		}
		out[x] = dst
	}
	return out
}

// betaWeight returns the retained valueSim from an E1 node to an E2 node (0
// if the directed edge was pruned).
func (g *Graph) betaWeight(e1, e2 kb.EntityID) float64 {
	if j := indexEdge(g.Beta1.Row(int(e1)), e2); j >= 0 {
		return g.Beta1.Row(int(e1))[j].Weight()
	}
	return 0
}
