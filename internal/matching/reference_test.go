package matching

import (
	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// aggregateMap is the map-based predecessor of aggregate, kept as the
// reference the scoreboard property tests pin it against.
func (m *matcher) aggregateMap(valCands, ngbCands []graph.Edge) (kb.EntityID, float64) {
	if !m.cfg.UseNeighbors {
		ngbCands = nil
	}
	if len(valCands) == 0 && len(ngbCands) == 0 {
		return kb.NoEntity, 0
	}
	agg := make(map[kb.EntityID]float64, len(valCands)+len(ngbCands))
	n := len(valCands)
	for idx, e := range valCands {
		rank := n - idx
		agg[e.To] += m.cfg.Theta * float64(rank) / float64(n)
	}
	n = len(ngbCands)
	for idx, e := range ngbCands {
		rank := n - idx
		agg[e.To] += (1 - m.cfg.Theta) * float64(rank) / float64(n)
	}
	best := kb.NoEntity
	bestScore := -1.0
	for to, s := range agg {
		if s > bestScore || (s == bestScore && to < best) {
			best, bestScore = to, s
		}
	}
	return best, bestScore
}
