package blocking

import "minoaner/internal/kb"

// What the external tests of this directory (package blocking_test, which
// may import the packages that build and store an index) need from inside
// the package.

// Columns is the whole state of a token index.
type Columns struct {
	Dict       *kb.Interner
	T1, T2     []int32
	Off1, Off2 []int32
	Mem1, Mem2 []kb.EntityID
	Weight     []float64
	Live       int
}

// Columns returns the index's state; the slices alias the index.
func (ix *TokenIndex) Columns() Columns {
	return Columns{ix.dict, ix.t1, ix.t2, ix.o1, ix.o2, ix.m1, ix.m2, ix.weight, ix.live}
}
