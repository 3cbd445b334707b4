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

	// walk is set on the rows of one span of a streamed walk (emitRows with
	// a demand): the scratch the next span of the walk takes over when it is
	// handed these rows as reuse.
	walk *spanWalk
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

// CheckShape validates the offset table of a row set that came from outside the
// program: n rows, starting at 0, non-decreasing, covering Flat exactly.
func (r Rows[T]) CheckShape(n int, what string) error {
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

// RowsOf lays a ragged [][]T out as one row set: an offset table and one
// flat copy of the rows.
func RowsOf[T any](rows [][]T) Rows[T] {
	r := Rows[T]{Off: make([]int64, len(rows)+1)}
	for i, row := range rows {
		r.Off[i+1] = r.Off[i] + int64(len(row))
	}
	r.Flat = make([]T, 0, r.Off[len(rows)])
	for _, row := range rows {
		r.Flat = append(r.Flat, row...)
	}
	return r
}

// Nested returns the rows as a ragged [][]T whose rows alias Flat.
func (r Rows[T]) Nested() [][]T {
	out := make([][]T, r.Len())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// TopInNeighbors reverses a top-neighbor index: row e of the result lists
// the entities that have e among their top neighbors (Algorithm 1, lines
// 44–47). The reversal is a counting pass and a scatter into one flat array;
// sources are visited in ascending order, so every row comes out sorted by
// entity ID without a sort step.
func TopInNeighbors(top Rows[kb.EntityID]) Rows[kb.EntityID] {
	n := top.Len()
	in := Rows[kb.EntityID]{Off: make([]int64, n+1)}
	for _, dst := range top.Flat {
		in.Off[dst+1]++
	}
	prefixSums(in.Off)
	in.Flat = make([]kb.EntityID, in.Off[n])
	cur := slices.Clone(in.Off[:n])
	for src := 0; src < n; src++ {
		for _, dst := range top.Row(src) {
			in.Flat[cur[dst]] = kb.EntityID(src)
			cur[dst]++
		}
	}
	return in
}
