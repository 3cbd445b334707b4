package blocking

import (
	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// Stats summarizes a blocking configuration the way Table 2 of the paper
// does: block counts, aggregate comparison counts, the Cartesian baseline
// and the effectiveness of the candidate set against the ground truth.
type Stats struct {
	// NameBlocks and TokenBlocks are |B_N| and |B_T|.
	NameBlocks, TokenBlocks int
	// NameComparisons and TokenComparisons are ‖B_N‖ and ‖B_T‖ (aggregate
	// cross-KB comparisons, counting multiplicity across blocks).
	NameComparisons, TokenComparisons int64
	// Cartesian is |E1|·|E2|.
	Cartesian int64
	// Found is the number of ground-truth pairs co-occurring in at least
	// one block; Recall = Found / |GT|.
	Found  int
	Recall float64
	// Precision follows the paper's pair-quality convention: ground-truth
	// pairs found divided by the total suggested comparisons ‖B_N‖+‖B_T‖.
	Precision float64
	F1        float64
}

// Index provides O(1) lookup from blocking key to block.
type Index struct {
	byKey map[string]*Block
}

// NewIndex indexes a collection by key.
func NewIndex(c *Collection) *Index {
	ix := &Index{byKey: make(map[string]*Block, len(c.Blocks))}
	for i := range c.Blocks {
		ix.byKey[c.Blocks[i].Key] = &c.Blocks[i]
	}
	return ix
}

// Lookup returns the block for key, or nil.
func (ix *Index) Lookup(key string) *Block {
	return ix.byKey[key]
}

// contains reports whether the sorted slice holds id.
func contains(ids []kb.EntityID, id kb.EntityID) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// CoOccur reports whether the pair shares at least one block of the indexed
// collection, given the candidate keys of the E1 entity (its tokens or
// names). It implements the co-occurrence function o_key of Def. 3.1 on the
// purged collection.
func (ix *Index) CoOccur(keys []string, e1, e2 kb.EntityID) bool {
	for _, key := range keys {
		if ix.coOccurKey(key, e1, e2) {
			return true
		}
	}
	return false
}

// CoOccurTokens is CoOccur over the interned tokens of entity e1 of k1: it
// walks the KB's token CSR and resolves each key string from the dictionary
// (no per-call slice materialization, unlike Description.Tokens).
func (ix *Index) CoOccurTokens(k1 *kb.KB, e1, e2 kb.EntityID) bool {
	dict := k1.TokenDict()
	for _, id := range k1.TokenIDs(e1) {
		if ix.coOccurKey(dict.TokenString(id), e1, e2) {
			return true
		}
	}
	return false
}

func (ix *Index) coOccurKey(key string, e1, e2 kb.EntityID) bool {
	b := ix.byKey[key]
	return b != nil && contains(b.E1, e1) && contains(b.E2, e2)
}

// EvaluateBlocks computes Table 2's statistics for the name + token blocking
// of a KB pair against the ground truth. Recall counts a ground-truth pair
// as found if it co-occurs in any name or token block after purging.
func EvaluateBlocks(k1, k2 *kb.KB, nameBlocks, tokenBlocks *Collection, gt *eval.GroundTruth, nameKeysOf func(e kb.EntityID) []string) Stats {
	st := Stats{
		NameBlocks:       nameBlocks.Len(),
		TokenBlocks:      tokenBlocks.Len(),
		NameComparisons:  nameBlocks.TotalComparisons(),
		TokenComparisons: tokenBlocks.TotalComparisons(),
		Cartesian:        int64(k1.Len()) * int64(k2.Len()),
	}
	nameIx, tokenIx := NewIndex(nameBlocks), NewIndex(tokenBlocks)
	for _, p := range gt.Pairs() {
		found := tokenIx.CoOccurTokens(k1, p.E1, p.E2)
		if !found && nameKeysOf != nil {
			found = nameIx.CoOccur(nameKeysOf(p.E1), p.E1, p.E2)
		}
		if found {
			st.Found++
		}
	}
	if gt.Len() > 0 {
		st.Recall = float64(st.Found) / float64(gt.Len())
	}
	total := st.NameComparisons + st.TokenComparisons
	if total > 0 {
		st.Precision = float64(st.Found) / float64(total)
	}
	if st.Precision+st.Recall > 0 {
		st.F1 = 2 * st.Precision * st.Recall / (st.Precision + st.Recall)
	}
	return st
}
