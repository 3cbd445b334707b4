// Snapshot-side accessors for the columnar TokenIndex: the raw column view a
// serializer reads and the constructor a loader reassembles from. Only
// dictionary-backed indexes (the pipeline's) round-trip — from-collection
// views (keys != nil) exist solely as a compatibility path and are never
// part of a substrate.
package blocking

import (
	"fmt"

	"minoaner/internal/kb"
	"minoaner/internal/stats"
)

// IndexColumns is the raw columnar state of a dictionary-backed TokenIndex:
// the slot dictionary, the optional per-KB translation tables (nil when the
// KBs share the dictionary), the two flat member CSRs and the per-slot
// weights (0 marking dead — single-KB or purged — slots). Every slice is
// read-only for both producers and consumers; a loader may hand in views
// over a memory-mapped region, which the index aliases without copying.
type IndexColumns struct {
	Dict       *kb.Interner
	T1, T2     []int32
	Off1, Off2 []int32
	Mem1, Mem2 []kb.EntityID
	Weight     []float64
}

// SnapshotColumns exposes the index's columnar state for serialization.
func (ix *TokenIndex) SnapshotColumns() IndexColumns {
	return IndexColumns{
		Dict: ix.dict, T1: ix.t1, T2: ix.t2,
		Off1: ix.o1, Off2: ix.o2, Mem1: ix.m1, Mem2: ix.m2,
		Weight: ix.weight,
	}
}

// TokenIndexFromColumns reassembles a dictionary-backed TokenIndex from its
// raw columns (the inverse of SnapshotColumns), validating the CSR shape and
// the translation tables' targets; that the tables cover their KBs'
// dictionaries and the members name entities is for the caller, who knows
// the KBs, to check.
// The live-slot count is recomputed from the weights rather than trusted.
func TokenIndexFromColumns(c IndexColumns) (*TokenIndex, error) {
	if c.Dict == nil {
		return nil, fmt.Errorf("blocking: token index from columns: nil dictionary")
	}
	n := c.Dict.Len()
	if len(c.Weight) != n {
		return nil, fmt.Errorf("blocking: token index from columns: %d slots vs dictionary of %d", len(c.Weight), n)
	}
	if err := checkMemberCSR(c.Off1, c.Mem1, n, "e1"); err != nil {
		return nil, err
	}
	if err := checkMemberCSR(c.Off2, c.Mem2, n, "e2"); err != nil {
		return nil, err
	}
	for _, t := range [][]int32{c.T1, c.T2} {
		for _, s := range t {
			if s < -1 || int(s) >= n {
				return nil, fmt.Errorf("blocking: token index from columns: translation to slot %d of %d", s, n)
			}
		}
	}
	ix := &TokenIndex{
		dict: c.Dict, t1: c.T1, t2: c.T2,
		o1: c.Off1, o2: c.Off2, m1: c.Mem1, m2: c.Mem2,
		weight: c.Weight,
	}
	for _, w := range ix.weight {
		if w > 0 {
			ix.live++
		}
	}
	return ix, nil
}

// checkMemberCSR validates one member CSR over n slots: n+1 offsets, first
// 0, non-decreasing, last covering the flat array.
func checkMemberCSR(off []int32, mem []kb.EntityID, n int, what string) error {
	if len(off) != n+1 || off[0] != 0 || off[n] != int32(len(mem)) {
		return fmt.Errorf("blocking: token index from columns: %s offsets do not cover %d members over %d slots",
			what, len(mem), n)
	}
	for s := 0; s < n; s++ {
		if off[s] > off[s+1] {
			return fmt.Errorf("blocking: token index from columns: %s offsets decrease at slot %d", what, s)
		}
	}
	return nil
}

// RecomputeWeight re-derives one slot's live weight from its member lists —
// exposed so property tests can cross-check stored weights against the
// formula without reaching into the package.
func RecomputeWeight(n1, n2 int) float64 {
	if n1 == 0 || n2 == 0 {
		return 0
	}
	return stats.TokenWeight(n1, n2)
}
