// Package blocking implements MinoanER's composite blocking scheme (§3):
// schema-agnostic token blocking (every shared token of any literal value
// creates a block), name blocking over the discovered name attributes, and
// Block Purging of oversized stop-word blocks. Blocks carry the entities of
// both input KBs separately, since clean-clean ER only compares across KBs.
package blocking

import "minoaner/internal/kb"

// Block groups the entities of the two KBs that share one blocking key.
type Block struct {
	Key string
	// E1 and E2 hold the entities of each KB indexed under Key, sorted by ID.
	E1, E2 []kb.EntityID
}

// Comparisons returns |b1|·|b2|, the number of cross-KB comparisons the
// block suggests.
func (b *Block) Comparisons() int64 {
	return int64(len(b.E1)) * int64(len(b.E2))
}

// Collection is an ordered set of blocks (sorted by key, so every pipeline
// stage iterates deterministically).
type Collection struct {
	Blocks []Block
}

// Len returns the number of blocks (|B| in Table 2).
func (c *Collection) Len() int { return len(c.Blocks) }

// TotalComparisons returns ‖B‖: the aggregate number of suggested cross-KB
// comparisons, counting a pair once per co-occurring block (Table 2).
func (c *Collection) TotalComparisons() int64 {
	var total int64
	for i := range c.Blocks {
		total += c.Blocks[i].Comparisons()
	}
	return total
}

// ComparisonBudget converts a Block Purging fraction into the absolute
// comparison budget for a KB pair: fraction of the Cartesian product
// |E1|·|E2|, at least 1. A non-positive fraction disables purging (budget
// 0). It is the single place the threshold formula lives: the substrate
// build purges every token block above it, and a substrate from parts
// derives its token index at it.
func ComparisonBudget(n1, n2 int, fraction float64) int64 {
	if fraction <= 0 {
		return 0
	}
	budget := int64(float64(n1) * float64(n2) * fraction)
	if budget < 1 {
		budget = 1
	}
	return budget
}
