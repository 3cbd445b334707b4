package matching

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// randomRow builds a pruned-looking candidate row: distinct IDs, sorted by
// decreasing weight with ties toward the lower ID (the invariant β/γ rows
// hold).
func randomRow(r *rand.Rand, maxLen, idSpace int) []graph.Edge {
	n := r.Intn(maxLen + 1)
	seen := map[kb.EntityID]bool{}
	var row []graph.Edge
	for len(row) < n {
		id := kb.EntityID(r.Intn(idSpace))
		if seen[id] {
			continue
		}
		seen[id] = true
		row = append(row, graph.NewEdge(id, 0.1+r.Float64()*3))
	}
	sort.Slice(row, func(i, j int) bool {
		if row[i].Weight() != row[j].Weight() {
			return row[i].Weight() > row[j].Weight()
		}
		return row[i].To < row[j].To
	})
	return row
}

// RankAggregateRow's element 0 must be the exact pick of the batch
// aggregate (scoreboard and map reference alike), and the full ranking must
// cover every candidate of both rows in fused-score order, across reuses of
// one scratch.
func TestRankAggregateRowMatchesAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	sc := NewAggScratch()
	for trial := 0; trial < 300; trial++ {
		theta := 0.1 + r.Float64()*0.8
		useNgb := trial%3 != 0
		m := &matcher{cfg: Config{Theta: theta, UseNeighbors: useNgb}}
		val := randomRow(r, 8, 30)
		ngb := randomRow(r, 8, 30)

		ranking := RankAggregateRow(sc, val, ngb, theta, useNgb)
		wantTo, wantScore := m.aggregate(newAggBoard(), val, ngb)
		mapTo, mapScore := m.aggregateMap(val, ngb)
		gotTo, gotScore := kb.NoEntity, 0.0 // an empty ranking has no pick, nor has aggregate
		if len(ranking) > 0 {
			gotTo, gotScore = ranking[0].To, ranking[0].Weight()
		}
		if gotTo != wantTo || gotScore != wantScore {
			t.Fatalf("trial %d: ranking[0] = (%d, %v), aggregate = (%d, %v)", trial, gotTo, gotScore, wantTo, wantScore)
		}
		if gotTo != mapTo || gotScore != mapScore {
			t.Fatalf("trial %d: ranking[0] = (%d, %v), aggregateMap = (%d, %v)", trial, gotTo, gotScore, mapTo, mapScore)
		}

		// Reference fused scores, candidate for candidate.
		ref := map[kb.EntityID]float64{}
		n := len(val)
		for idx, e := range val {
			ref[e.To] += theta * float64(n-idx) / float64(n)
		}
		if useNgb {
			n = len(ngb)
			for idx, e := range ngb {
				ref[e.To] += (1 - theta) * float64(n-idx) / float64(n)
			}
		}
		if len(ranking) != len(ref) {
			t.Fatalf("trial %d: ranking has %d candidates, want %d", trial, len(ranking), len(ref))
		}
		for i, e := range ranking {
			if ref[e.To] != e.Weight() {
				t.Fatalf("trial %d: candidate %d fused score = %v, want %v", trial, e.To, e.Weight(), ref[e.To])
			}
			if i > 0 {
				prev := ranking[i-1]
				if prev.Weight() < e.Weight() || (prev.Weight() == e.Weight() && prev.To >= e.To) {
					t.Fatalf("trial %d: ranking out of order at %d: %v then %v", trial, i, prev, e)
				}
			}
		}
	}
}

func TestRankAggregateRowEmpty(t *testing.T) {
	sc := NewAggScratch()
	if got := RankAggregateRow(sc, nil, nil, 0.6, true); got != nil {
		t.Fatalf("empty rows → %v, want nil", got)
	}
	if got := RankAggregateRow(sc, nil, []graph.Edge{graph.NewEdge(3, 1)}, 0.6, false); got != nil {
		t.Fatalf("neighbors disabled with only a γ row → %v, want nil", got)
	}
	m := &matcher{cfg: Config{Theta: 0.6, UseNeighbors: true}}
	if to, s := m.aggregate(newAggBoard(), nil, nil); to != kb.NoEntity || s != 0 {
		t.Fatalf("aggregate of empty rows = (%d, %v), want no pick where the ranking is empty", to, s)
	}
}

// One reused scratch must not leak scores between calls — reflect.DeepEqual
// of back-to-back runs on identical inputs catches a missing reset.
func TestRankAggregateRowScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	val := randomRow(r, 6, 20)
	ngb := randomRow(r, 6, 20)
	sc := NewAggScratch()
	first := RankAggregateRow(sc, val, ngb, 0.6, true)
	for i := 0; i < 5; i++ {
		if got := RankAggregateRow(sc, val, ngb, 0.6, true); !reflect.DeepEqual(got, first) {
			t.Fatalf("reuse %d drifted: %v vs %v", i, got, first)
		}
	}
}
