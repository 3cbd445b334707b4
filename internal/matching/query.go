// The per-entity query form of rule R3: fuse one node's β and γ candidate
// rows into a full ranked list instead of just the single best pick the
// batch matcher commits. The substrate query path uses it to return scored
// candidates for one new description; element 0 of the ranking is exactly
// the pick the batch aggregate() would have made, which is what the
// query/batch equivalence tests pin.
package matching

import (
	"cmp"
	"slices"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// AggScratch is the per-query rank-aggregation scratch — the same bounded
// sparse board an R3 worker holds (≤ 2K live entries), owned by one
// in-flight query. Not safe for concurrent use; concurrent queries each
// take their own.
type AggScratch struct {
	b *aggBoard
}

// NewAggScratch returns fresh aggregation scratch.
func NewAggScratch() *AggScratch { return &AggScratch{b: newAggBoard()} }

// RankAggregateRow fuses the two pruned candidate rows of one node — β
// (value evidence) and γ (neighbor evidence) — into the full ranking R3
// scores candidates by: θ·rank/|valCands| + (1−θ)·rank/|ngbCands|, sorted
// by decreasing fused score with ties toward the lower entity ID. When
// useNeighbors is false the γ row is ignored (the "No Neighbors" ablation).
// Per-candidate additions follow the same value-then-neighbor order as the
// batch aggregate, so the fused floats are bit-identical and element 0 of
// the result IS the batch pick (same tie-break). Returns nil when both rows
// are empty; the scratch is reset before returning.
func RankAggregateRow(sb *AggScratch, valCands, ngbCands []graph.Edge, theta float64, useNeighbors bool) []graph.Edge {
	if !useNeighbors {
		ngbCands = nil
	}
	if len(valCands) == 0 && len(ngbCands) == 0 {
		return nil
	}
	b := sb.b
	b.accumulate(valCands, ngbCands, theta)
	slices.SortFunc(b.cands, func(a, c pick) int {
		if a.score != c.score {
			return cmp.Compare(c.score, a.score)
		}
		return cmp.Compare(a.to, c.to)
	})
	out := make([]graph.Edge, len(b.cands))
	for i, c := range b.cands {
		out[i] = graph.NewEdge(c.to, c.score)
	}
	b.reset()
	return out
}

// BestOf returns the top candidate of a fused ranking — (kb.NoEntity, 0)
// when the ranking is empty. Mirrors aggregate()'s return contract.
func BestOf(ranking []graph.Edge) (kb.EntityID, float64) {
	if len(ranking) == 0 {
		return kb.NoEntity, 0
	}
	return ranking[0].To, ranking[0].Weight()
}
