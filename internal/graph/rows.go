package graph

import (
	"fmt"
	"slices"

	"minoaner/internal/kb"
)

// Rows is a ragged row set in CSR form: row i is Flat[Off[i]:Off[i+1]].
// Every per-node structure of the graph is one — two allocations however
// many rows there are, and exactly the (offsets, flat) section pair a
// snapshot stores, so the writer emits the arrays as they are and the loader
// installs views over the mapping. Off holds rows+1 element counts starting
// at 0; the zero value is a set of no rows.
type Rows[T any] struct {
	Off  []int64
	Flat []T
}

// Len returns the number of rows.
func (r Rows[T]) Len() int {
	if len(r.Off) == 0 {
		return 0
	}
	return len(r.Off) - 1
}

// Row returns row i. The slice aliases Flat and must not be modified.
func (r Rows[T]) Row(i int) []T {
	lo, hi := r.Off[i], r.Off[i+1]
	return r.Flat[lo:hi:hi]
}

// check validates the offset table of a row set that came from outside the
// program: n rows, starting at 0, non-decreasing, covering Flat exactly.
func (r Rows[T]) check(n int, what string) error {
	if len(r.Off) != n+1 {
		return fmt.Errorf("graph: %s: offset table of %d entries, want %d", what, len(r.Off), n+1)
	}
	if r.Off[0] != 0 || r.Off[n] != int64(len(r.Flat)) {
		return fmt.Errorf("graph: %s: offsets [%d..%d] do not cover %d elements", what, r.Off[0], r.Off[n], len(r.Flat))
	}
	for i := 0; i < n; i++ {
		if r.Off[i] > r.Off[i+1] {
			return fmt.Errorf("graph: %s: offsets decrease at row %d", what, i)
		}
	}
	return nil
}

// prefixSums turns per-row counts stored at off[1:] into offsets in place.
func prefixSums(off []int64) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// sortCompactIDs sorts every row, drops repeated IDs and closes the gaps in
// place. A set whose rows hold no repeats keeps its exact-size Flat.
func sortCompactIDs(r *Rows[kb.EntityID]) {
	w, start := int64(0), int64(0)
	for i := 0; i < r.Len(); i++ {
		end := r.Off[i+1]
		seg := r.Flat[start:end]
		slices.Sort(seg)
		r.Off[i] = w
		for j, id := range seg {
			if j == 0 || id != seg[j-1] {
				r.Flat[w] = id
				w++
			}
		}
		start = end
	}
	if n := r.Len(); n > 0 {
		r.Off[n] = w
	}
	r.Flat = r.Flat[:w]
}

// TopInNeighbors reverses a top-neighbor index: row e of the result lists
// the entities that have e among their top neighbors (Algorithm 1, lines
// 44–47). The reversal is a counting pass and a scatter into one flat array;
// sources are visited in ascending order, so every row comes out sorted by
// entity ID without a sort step.
func TopInNeighbors(top [][]kb.EntityID) Rows[kb.EntityID] {
	in := Rows[kb.EntityID]{Off: make([]int64, len(top)+1)}
	for _, neighbors := range top {
		for _, dst := range neighbors {
			in.Off[dst+1]++
		}
	}
	prefixSums(in.Off)
	in.Flat = make([]kb.EntityID, in.Off[len(top)])
	cur := slices.Clone(in.Off[:len(top)])
	for src, neighbors := range top {
		for _, dst := range neighbors {
			in.Flat[cur[dst]] = kb.EntityID(src)
			cur[dst]++
		}
	}
	return in
}
