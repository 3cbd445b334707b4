// Per-entity query kernels: the single-row forms of the β and γ weighting
// passes of Algorithm 1, used by the substrate query path to weight ONE new
// description against a frozen graph instead of rebuilding candidate rows
// for a whole KB. Each kernel is the loop body of its batch counterpart
// (BetaRowsCtx, gammaRows) applied to caller-resolved inputs, so a query
// that mirrors a KB member's statements reproduces that member's batch row
// bit for bit — the equivalence the core package's property tests pin.
package graph

import (
	"cmp"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
)

// QueryScratch is the per-query accumulation state: one dense scoreboard
// over the candidate KB's entity IDs plus the reusable top-K heap buffer —
// the same scratch a batch worker holds, owned by one in-flight query
// instead of one goroutine. A QueryScratch is not safe for concurrent use;
// concurrent queries on one substrate each take their own (the core package
// pools them).
type QueryScratch struct {
	sc *boardScratch
}

// NewQueryScratch returns scratch for querying against a candidate space of
// otherLen entities with rows pruned to k.
func NewQueryScratch(otherLen, k int) *QueryScratch {
	return &QueryScratch{sc: newBoardScratch(otherLen, k)}
}

// BetaRowForTokens computes the β candidate row of one synthetic entity from
// its resolved token IDs: the token walk of BetaRowsCtx over explicit IDs
// instead of a stored description. tids must be in token-STRING order — the
// order kb.Description.TokenIDs presents — and resolved against the shared
// interner without interning (kb.Interner.Lookup); tokens unknown to the
// dictionary must be dropped by the caller, which matches the batch walk
// because an unknown token indexes no block. The index is never mutated, so
// concurrent query walks are safe. An index loaded from a file may name
// entities that do not exist: the walk checks the members it scatters and
// fails with ErrOutOfRange.
func BetaRowForTokens(ix *blocking.TokenIndex, tids []kb.TokenID, fromE1 bool, qs *QueryScratch, k int) ([]Edge, error) {
	board := qs.sc.board
	var err error
	ix.ForEachSharedTokens(tids, fromE1, func(w float64, others []kb.EntityID) {
		for _, o := range others {
			if !board.Has(o) {
				err = ErrOutOfRange
			} else if err == nil {
				board.Add(o, w)
			}
		}
	})
	return qs.sc.finishRow(k, err)
}

// Gamma1RowFor computes the γ candidate row of one synthetic E1-side entity
// from its top-neighbor list (stats.TopNeighborsOf over relations resolved to
// K1 entities) — the loop body of gammaRows against the graph's frozen
// merged adjacency and reverse top-neighbor index. The graph is read-only,
// so concurrent calls with distinct scratches are safe. Like
// BetaRowForTokens it checks what it follows (addGamma, as the batch walk
// does), so a graph that only passed CheckShape can be queried.
func (g *Graph) Gamma1RowFor(top []kb.EntityID, qs *QueryScratch) ([]Edge, error) {
	return qs.sc.finishRow(g.K, addGamma(qs.sc.board, top, g.Adj1, g.In2))
}

// StoredRows1 returns the rows the graph stores for E1 node e — its α row,
// its β row and its top-neighbor list — which are what a query re-describing
// e would recompute from e's statements. n1 and n2 are the pair's entity
// counts, and e must be below n1. Like the query kernels it checks what it
// hands out, so a graph that only passed CheckShape can be read: α and β
// targets must be E2 entities and top neighbors E1 entities (ErrOutOfRange),
// β weights strictly positive and finite (ErrBadWeight). The rows alias the
// graph and must not be modified.
func (g *Graph) StoredRows1(e kb.EntityID, n1, n2 int) (alpha []kb.EntityID, beta []Edge, top []kb.EntityID, err error) {
	alpha, beta, top = g.Alpha1.Row(int(e)), g.Beta1.Row(int(e)), g.Top1.Row(int(e))
	if err := cmp.Or(CheckIDs(alpha, n2), CheckIDs(top, n1), CheckEdges(beta, n2)); err != nil {
		return nil, nil, nil, err
	}
	return alpha, beta, top, nil
}
