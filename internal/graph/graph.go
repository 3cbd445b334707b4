// Package graph implements MinoanER's disjunctive blocking graph (§3.2–3.3
// of the paper): a compact abstraction of all candidate matches where each
// edge between a pair of cross-KB entities carries three weights —
//
//	α: 1 if the pair shares a name no other entity uses (name block of size 1×1)
//	β: valueSim, accumulated from token-block sizes (Algorithm 1, line 14)
//	γ: neighborNSim, propagated from β-edges through top in-neighbors
//
// After weighting, each node keeps only its top-K edges by β and top-K by γ
// (Algorithm 1), turning the undirected graph into a directed one — the
// structure the matcher's reciprocity rule R4 relies on.
//
// Like the paper's implementation, the graph is never materialized as a
// global edge list: each node holds only the candidate lists needed to match
// it, which is also what makes the construction embarrassingly parallel.
package graph

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Edge is a directed, weighted candidate edge to an entity of the other KB:
// a 12-byte record, 4-byte aligned, holding the target and the float64
// weight's IEEE bits in two named halves. On a little-endian host the bytes
// of an []Edge are the bytes a snapshot stores — the target at +0, the
// weight's bits at +4 — and the two halves load and store as one 8-byte
// access (an array of two words would not be combined). Read the weight with
// Weight and build an edge with NewEdge.
type Edge struct {
	To     kb.EntityID
	lo, hi uint32
}

// NewEdge returns the edge to the given node with weight w.
func NewEdge(to kb.EntityID, w float64) Edge {
	b := math.Float64bits(w)
	return Edge{To: to, lo: uint32(b), hi: uint32(b >> 32)}
}

// Weight returns the edge's weight.
func (e Edge) Weight() float64 { return math.Float64frombits(uint64(e.hi)<<32 | uint64(e.lo)) }

// Graph is the pruned, directed disjunctive blocking graph of one KB pair —
// the one artifact batch matching, the per-entity query path and the
// snapshot writer all read. Row sets are indexed by EntityID; *1 fields
// describe edges out of E1 nodes (pointing to E2 entities) and *2 fields the
// reverse direction. A Graph is immutable once built or installed.
type Graph struct {
	// Alpha1 row i lists the E2 entities sharing a globally unique name with
	// E1 entity i (α = 1 edges), sorted. Alpha2 is the reverse direction.
	Alpha1, Alpha2 Rows[kb.EntityID]
	// Beta1 row i holds up to K candidates sorted by decreasing valueSim.
	Beta1, Beta2 Rows[Edge]
	// Gamma2 row j holds up to K candidates sorted by decreasing
	// neighborNSim. Gamma1 has no rows unless BuildTimedCtx materialized it:
	// consumers build the rows they will read (Gamma1Rows), or compute one
	// (Gamma1RowFor), from the inputs below.
	Gamma1, Gamma2 Rows[Edge]
	// Gamma1Edges is the number of edges the E1-side γ rows hold, counted
	// once when the graph is built, whether Gamma1 is materialized or not.
	Gamma1Edges int

	// The inputs of E1-side γ rows: E1's top-neighbor lists (shared with the
	// substrate), the β edges of both directions merged into E1's undirected
	// adjacency, the reverse top-neighbor index of E2, and the row bound K.
	Top1 Rows[kb.EntityID]
	Adj1 Rows[Edge]
	In2  Rows[kb.EntityID]
	K    int
}

// Input bundles everything Algorithm 1 needs.
type Input struct {
	K1, K2 *kb.KB
	// NameBlocks is the name block collection of §3.1.
	NameBlocks *blocking.Collection
	// TokenBlocks is not read by the builder: the β stage walks TokenIndex
	// alone. The repository benchmark's layer replay still sets it; it is
	// deleted with that replay (ROADMAP items 1(a) and 11).
	TokenBlocks *blocking.Collection
	// TokenIndex is the (purged) columnar token index the β stage walks:
	// token blocking of §3.1 with Block Purging applied. Required.
	TokenIndex *blocking.TokenIndex
	// Top1/Top2 are the per-entity top-neighbor lists of each KB
	// (stats.TopNeighborsRanksCtx); Algorithm 1 derives the in-neighbor
	// index from them internally (procedure getTopInNeighbors).
	// BuildTimedCtx reads them; BuildSharedCtx takes them flat instead.
	Top1, Top2 [][]kb.EntityID
	// K is the number of candidates kept per node per weight (paper default 15).
	K int
}

// Timings records the wall clock of the two weighting phases of Algorithm 1
// — the split the repository benchmark reports as graph.beta_s and
// graph.gamma_s. The pipeline does not read it.
type Timings struct {
	// Beta covers name evidence and both β directions: they run concurrently
	// (Figure 4), so they are timed as one barrier. Gamma covers the
	// adjacency merges, the in-neighbor reversals and the E2-side γ rows; the
	// E1-side rows are added by whoever produces them (BuildTimedCtx, or the
	// pipeline as it builds the ones matching reads).
	Beta, Gamma time.Duration
}

// BuildSharedCtx runs Algorithm 1 — name evidence, value evidence, neighbor
// evidence, with top-K pruning per node — up to the point where every
// consumer can read the graph: α, both β directions, the E2-side γ rows and
// the inputs from which E1-side γ rows are produced on demand. All stages
// are data-parallel over entities; per-entity candidate accumulation is
// heavily skewed (entities in large token blocks touch far more candidates),
// so the β and γ passes run under the dynamic chunked scheduler. The first
// error — in practice only ctx cancellation — aborts all stages.
//
// The top-neighbor rows come flat, as the substrate holds them, in place of
// in.Top1 and in.Top2; the graph keeps top1 as its Top1.
//
// The two γ sides build concurrently (in sequence at one worker, like every
// ConcurrentCtx). The E2-side pass also counts the edges of the E1-side
// rows (Gamma1Edges), which it can because γ's support is symmetric.
func BuildSharedCtx(ctx context.Context, e *parallel.Engine, in Input, top1, top2 Rows[kb.EntityID]) (*Graph, Timings, error) {
	g := &Graph{Top1: top1, K: in.K}
	var tm Timings
	ce := e.Chunked()
	ix := in.TokenIndex
	n1, n2 := in.K1.Len(), in.K2.Len()
	t0 := time.Now()
	// Name evidence and the two directions of value evidence are mutually
	// independent (Figure 4 runs them concurrently).
	err := e.ConcurrentCtx(ctx,
		func(context.Context) error {
			g.Alpha1, g.Alpha2 = buildAlpha(in.NameBlocks, n1, n2)
			return nil
		},
		func(sc context.Context) (err error) {
			g.Beta1, err = BetaRowsCtx(sc, ce, ix, in.K1, n2, true, in.K)
			return err
		},
		func(sc context.Context) (err error) {
			g.Beta2, err = BetaRowsCtx(sc, ce, ix, in.K2, n1, false, in.K)
			return err
		},
	)
	if err != nil {
		return nil, tm, err
	}
	tm.Beta = time.Since(t0)

	// γ: the retained β edges of both directions form one undirected edge
	// set. It is merged once, indexed by E2 node for the E2-side rows, and
	// transposed for the E1 side.
	t0 = time.Now()
	adj2 := MergeAdjacency(e, g.Beta2, g.Beta1)
	err = e.ConcurrentCtx(ctx,
		func(sc context.Context) (err error) {
			in1 := TopInNeighbors(top1)
			g.Gamma2, g.Gamma1Edges, err = gammaRows(sc, ce, top2, adj2, in1, in.K, nil, true)
			return err
		},
		func(context.Context) error {
			g.Adj1 = transposeEdges(adj2, n1)
			g.In2 = TopInNeighbors(top2)
			return nil
		},
	)
	if err != nil {
		return nil, tm, err
	}
	tm.Gamma = time.Since(t0)
	return g, tm, nil
}

// BuildTimedCtx is BuildSharedCtx over in.Top1 and in.Top2, laid out flat,
// plus every E1-side γ row, materialized in Gamma1: the whole graph of
// Algorithm 1 at once, for callers that count or inspect its edges. The
// pipeline never holds Gamma1 whole.
func BuildTimedCtx(ctx context.Context, e *parallel.Engine, in Input) (*Graph, Timings, error) {
	g, tm, err := BuildSharedCtx(ctx, e, in, RowsOf(in.Top1), RowsOf(in.Top2))
	if err != nil {
		return nil, tm, err
	}
	t0 := time.Now()
	if g.Gamma1, err = g.Gamma1Rows(ctx, e, nil); err != nil {
		return nil, tm, err
	}
	tm.Gamma += time.Since(t0)
	return g, tm, nil
}

// buildAlpha scans the name blocks for 1×1 blocks: a name used by exactly
// one entity of each KB (Algorithm 1, lines 5–9). Pairs are counted, then
// scattered, then each node's row is sorted and deduplicated once, so an
// entity carrying many unique names costs O(d log d).
func buildAlpha(nameBlocks *blocking.Collection, n1, n2 int) (alpha1, alpha2 Rows[kb.EntityID]) {
	alpha1.Off, alpha2.Off = make([]int64, n1+1), make([]int64, n2+1)
	unique := func(b *blocking.Block) bool { return len(b.E1) == 1 && len(b.E2) == 1 }
	for i := range nameBlocks.Blocks {
		if b := &nameBlocks.Blocks[i]; unique(b) {
			alpha1.Off[b.E1[0]+1]++
			alpha2.Off[b.E2[0]+1]++
		}
	}
	prefixSums(alpha1.Off)
	prefixSums(alpha2.Off)
	alpha1.Flat, alpha2.Flat = make([]kb.EntityID, alpha1.Off[n1]), make([]kb.EntityID, alpha2.Off[n2])
	cur1, cur2 := slices.Clone(alpha1.Off[:n1]), slices.Clone(alpha2.Off[:n2])
	for i := range nameBlocks.Blocks {
		if b := &nameBlocks.Blocks[i]; unique(b) {
			e1, e2 := b.E1[0], b.E2[0]
			alpha1.Flat[cur1[e1]] = e2
			cur1[e1]++
			alpha2.Flat[cur2[e2]] = e1
			cur2[e2]++
		}
	}
	sortCompactIDs(&alpha1)
	sortCompactIDs(&alpha2)
	return alpha1, alpha2
}

// BetaRowsCtx computes, for every entity of one side, its top-K candidates by
// valueSim (Algorithm 1, lines 10–19) — the value-evidence phase, exported
// for the stage benchmark that guards it in isolation. otherLen is the entity
// count of the OTHER KB (the candidate ID space). The per-token contribution is
// 1/log2(|b1|·|b2|+1): since token-block side sizes equal the per-KB entity
// frequencies, summing over shared blocks yields exactly Def. 2.1. The walk
// is purely columnar — token IDs into CSR member arrays with weights
// precomputed once per index, scattered into a per-worker scoreboard over
// the other KB's entity IDs (otherLen) — with no string hashing and no map
// insertion per (entity, token). Accumulation order per candidate is the
// token-walk order, so per-candidate float sums — and with them every
// retained weight — are bit-identical to the map-based reference the
// property tests keep.
func BetaRowsCtx(ctx context.Context, e *parallel.Engine, ix *blocking.TokenIndex, from *kb.KB, otherLen int, fromIsE1 bool, k int) (Rows[Edge], error) {
	rows, _, err := emitRows(ctx, e, from.Len(), otherLen, k, nil, false, func(board *Scoreboard, i int) error {
		ix.ForEachSharedTokens(from.TokenIDs(kb.EntityID(i)), fromIsE1, func(w float64, others []kb.EntityID) {
			for _, o := range others {
				board.Add(o, w)
			}
		})
		return nil
	})
	return rows, err
}

// gammaRows propagates β weights to in-neighbor pairs (Algorithm 1, lines
// 20–33) for every node of one side: if valueSim(x, y) = β and x is a top
// neighbor of a while y is a top neighbor of b, then β contributes to
// neighborNSim(a, b). Row i holds the pruned candidates of node i. top is
// the side's own top-neighbor lists, adj its merged undirected β adjacency
// — both directions' retained edges, so no contribution is counted twice —
// and inOther the reverse top-neighbor index of the OTHER side, whose
// length is also the candidate ID space. Per-candidate sums follow the
// neighbor-walk order of the map-based reference, keeping the weights
// bit-identical. need (one flag per node, nil for every row) and mirror are
// those of emitRows. γ's support is symmetric — a touches b exactly when b
// touches a — so with mirror set, a pass over every node of one side counts
// the edges of the other side's rows.
func gammaRows(ctx context.Context, e *parallel.Engine, top Rows[kb.EntityID], adj Rows[Edge], inOther Rows[kb.EntityID], k int, need []bool, mirror bool) (Rows[Edge], int, error) {
	return emitRows(ctx, e, top.Len(), inOther.Len(), k, need, mirror, func(board *Scoreboard, i int) error {
		return addGamma(board, top.Row(i), adj, inOther)
	})
}

// addGamma accumulates on the board the γ evidence of one node with the given
// top-neighbor list: the β weight of every adjacency edge (x, y) of a top
// neighbor x, onto every entity that has y among its top neighbors (the
// rows of in, whose count is the board's). It checks each entry as it
// follows it, so a graph that only passed CheckShape can be walked: a top
// neighbor outside adj, an edge target outside in or a member outside the
// board gives ErrOutOfRange, a weight that is not strictly positive and
// finite ErrBadWeight. The board is left partly filled on an error.
func addGamma(board *Scoreboard, top []kb.EntityID, adj Rows[Edge], in Rows[kb.EntityID]) error {
	for _, na := range top {
		if uint(na) >= uint(adj.Len()) {
			return ErrOutOfRange
		}
		for _, edge := range adj.Row(int(na)) {
			if uint(edge.To) >= uint(in.Len()) {
				return ErrOutOfRange
			}
			w := edge.Weight()
			if !goodWeight(w) {
				return ErrBadWeight
			}
			for _, b := range in.Row(int(edge.To)) {
				if !board.tryAdd(b, w) {
					return ErrOutOfRange
				}
			}
		}
	}
	return nil
}

// Gamma1Rows computes the γ rows of E1, one per entity, in one walk. need,
// when not nil, flags per E1 entity the rows a consumer will read: every
// other row comes back empty and costs neither work nor memory, so the
// array holds (needed rows) × min(K, n2) edges at most, and at worst
// n1 × min(K, n2): the bound the β₁ rows the graph holds are built under.
// The walk checks the Top1, Adj1 and In2 entries it follows (addGamma), so
// it may run over a graph that only passed CheckShape. The edge count of
// all rows is Gamma1Edges.
func (g *Graph) Gamma1Rows(ctx context.Context, e *parallel.Engine, need []bool) (Rows[Edge], error) {
	rows, _, err := gammaRows(ctx, e.Chunked(), g.Top1, g.Adj1, g.In2, g.K, need, false)
	return rows, err
}

// byTarget orders edges by target, the heavier of two edges to one target
// first.
func byTarget(a, b Edge) int {
	if a.To != b.To {
		return cmp.Compare(a.To, b.To)
	}
	return cmp.Compare(b.Weight(), a.Weight())
}

// MergeAdjacency merges the directed retained β-edges of both directions
// into an undirected adjacency for one side: row x holds each neighbor y at
// most once with its β weight, sorted by entity ID. own holds the side's own
// rows, reverse the other side's, whose targets index own's rows. When both
// directions retained the edge (x, y) their β weights coincide (valueSim is
// symmetric), but the merge keeps the highest weight of any duplicates, so
// the kept edge never depends on input order.
//
// A counting pass sizes the result exactly — a reverse edge already present
// in its own row adds nothing. Each row is then laid out as two runs sorted
// by target: the own edges (at most K, sorted here) and the reverse-only
// edges, which arrive in ascending order of their source; one in-place merge
// per row finishes it. Only rows that repeat a target within one direction,
// which pruned candidate rows never do, leave the array with spare capacity.
//
// The passes look a reverse edge's target row up at random, which is what
// they cost; every worker therefore takes a contiguous range of rows and
// scans all reverse edges for the ones that land in it.
func MergeAdjacency(e *parallel.Engine, own, reverse Rows[Edge]) Rows[Edge] {
	e = parallel.New(e.Workers()) // one static span per worker, whatever e's schedule
	n := own.Len()
	out := Rows[Edge]{Off: make([]int64, n+1)}
	ownLen := func(x kb.EntityID) int64 { return own.Off[x+1] - own.Off[x] }
	// landing calls visit for every reverse edge (y → x) with x in s.
	landing := func(s parallel.Span, visit func(x, y kb.EntityID, w float64)) {
		for y := 0; y < reverse.Len(); y++ {
			for _, edge := range reverse.Row(y) {
				if int(edge.To) >= s.Lo && int(edge.To) < s.Hi {
					visit(edge.To, kb.EntityID(y), edge.Weight())
				}
			}
		}
	}
	e.ForSpans(n, func(s parallel.Span) {
		for x := s.Lo; x < s.Hi; x++ {
			out.Off[x+1] = ownLen(kb.EntityID(x))
		}
		landing(s, func(x, y kb.EntityID, _ float64) {
			if indexEdge(own.Row(int(x)), y) < 0 {
				out.Off[x+1]++
			}
		})
	})
	prefixSums(out.Off)
	out.Flat = make([]Edge, out.Off[n])
	cur := make([]int64, n)
	// Each span finishes its rows at a write cursor that starts at the span's
	// first row and never passes the row it is on: the own run moves to
	// scratch first, and a reverse-only edge is read before anything is
	// written at or beyond it. A span that dropped repeats ends short.
	ends := parallel.MapSpans(e, n, func(s parallel.Span) int64 {
		longest := int64(0)
		for x := s.Lo; x < s.Hi; x++ {
			run := out.Flat[out.Off[x]:][:copy(out.Flat[out.Off[x]:], own.Row(x))]
			slices.SortFunc(run, byTarget)
			cur[x] = out.Off[x] + int64(len(run))
			longest = max(longest, int64(len(run)))
		}
		landing(s, func(x, y kb.EntityID, w float64) {
			run := out.Flat[out.Off[x] : out.Off[x]+ownLen(x)]
			if j := indexEdge(run, y); j >= 0 {
				run[j] = NewEdge(y, max(run[j].Weight(), w))
				return
			}
			out.Flat[cur[x]] = NewEdge(y, w)
			cur[x]++
		})
		scratch := make([]Edge, 0, longest)
		w, start := out.Off[s.Lo], out.Off[s.Lo]
		for x := s.Lo; x < s.Hi; x++ {
			end := out.Off[x+1]
			a := append(scratch[:0], out.Flat[start:start+ownLen(kb.EntityID(x))]...)
			b := out.Flat[start+int64(len(a)) : end]
			rowStart := w
			if w != start { // never for a span's first row, whose offset the span before reads
				out.Off[x] = w
			}
			for len(a) > 0 || len(b) > 0 {
				var next Edge
				if len(b) == 0 || (len(a) > 0 && byTarget(a[0], b[0]) <= 0) {
					next, a = a[0], a[1:]
				} else {
					next, b = b[0], b[1:]
				}
				if last := w - 1; last >= rowStart && out.Flat[last].To == next.To {
					out.Flat[last] = NewEdge(next.To, max(out.Flat[last].Weight(), next.Weight()))
					continue
				}
				out.Flat[w] = next
				w++
			}
			start = end
		}
		return w
	})
	// Close the gaps short spans left, if any.
	w := int64(0)
	for i, s := range e.Partitions(n) {
		from := out.Off[s.Lo]
		if shift := from - w; shift > 0 {
			copy(out.Flat[w:], out.Flat[from:ends[i]])
			for x := s.Lo; x < s.Hi; x++ {
				out.Off[x] -= shift
			}
		}
		w += ends[i] - from
	}
	out.Off[n] = w
	out.Flat = out.Flat[:w]
	return out
}

// transposeEdges turns an undirected adjacency indexed by one side into the
// same adjacency indexed by the other, whose n nodes are r's targets: row x
// of the result holds (y, w) for every (x, w) in row y of r. Sources are
// visited in ascending order, so rows come out sorted by entity ID — the
// result equals MergeAdjacency with the directions swapped, at the price of
// a counting pass and a scatter.
func transposeEdges(r Rows[Edge], n int) Rows[Edge] {
	t := Rows[Edge]{Off: make([]int64, n+1), Flat: make([]Edge, len(r.Flat))}
	for _, edge := range r.Flat {
		t.Off[edge.To+1]++
	}
	prefixSums(t.Off)
	cur := slices.Clone(t.Off[:n])
	for y := 0; y < r.Len(); y++ {
		for _, edge := range r.Row(y) {
			t.Flat[cur[edge.To]] = NewEdge(kb.EntityID(y), edge.Weight())
			cur[edge.To]++
		}
	}
	return t
}

// HasEdge2 reports whether the directed edge from E2 node e2 to E1 node e1
// survived pruning under any evidence (α, β or γ) — the E2 leg of rule R4's
// G.E membership test, which the batch matcher and the query path share. It
// scans the α, β and γ rows of e2 in turn, up to the first that holds the
// edge, and checks what it scans against the n1 entities of E1 (ContainsID,
// ContainsEdge), so a graph that only passed CheckShape can be asked. e2
// must be an E2 entity.
func (g *Graph) HasEdge2(e2, e1 kb.EntityID, n1 int) (bool, error) {
	if has, err := ContainsID(g.Alpha2.Row(int(e2)), e1, n1); has || err != nil {
		return has, err
	}
	if has, err := ContainsEdge(g.Beta2.Row(int(e2)), e1, n1); has || err != nil {
		return has, err
	}
	return ContainsEdge(g.Gamma2.Row(int(e2)), e1, n1)
}

// EdgeListContains reports whether an edge list holds an edge to the given
// node — the G.E membership test over an externally held candidate row.
func EdgeListContains(es []Edge, to kb.EntityID) bool { return indexEdge(es, to) >= 0 }

// indexEdge returns the position of the edge to the given node, or -1.
func indexEdge(es []Edge, to kb.EntityID) int {
	for i, e := range es {
		if e.To == to {
			return i
		}
	}
	return -1
}

// Edges returns the total number of directed edges retained in the graph,
// used by complexity assertions (|E| ≤ 2·(2K+names)·(|E1|+|E2|)). The
// E1-side γ edges are Gamma1Edges, whether Gamma1 is materialized or not.
func (g *Graph) Edges() int {
	return len(g.Alpha1.Flat) + len(g.Alpha2.Flat) + len(g.Beta1.Flat) + len(g.Beta2.Flat) +
		g.Gamma1Edges + len(g.Gamma2.Flat)
}

// CheckShape validates the layout of a graph that came from outside the
// program (a snapshot) against the pair's entity counts: a positive row
// bound, one top-neighbor list per E1 entity, and offset tables that cover
// their flat arrays — everything that makes taking a row safe, at the price
// of reading the offset tables only — and an E1-side γ edge count that n1
// rows of at most min(K, n2) edges can hold.
func (g *Graph) CheckShape(n1, n2 int) error {
	if g.K <= 0 {
		return fmt.Errorf("graph: row bound K=%d must be positive", g.K)
	}
	if most := int64(n1) * int64(min(g.K, n2)); g.Gamma1Edges < 0 || int64(g.Gamma1Edges) > most {
		return fmt.Errorf("graph: E1-side γ edge count %d outside [0, %d]", g.Gamma1Edges, most)
	}
	err := errors.Join(g.Top1.CheckShape(n1, "top1"),
		g.Alpha1.CheckShape(n1, "alpha1"), g.Alpha2.CheckShape(n2, "alpha2"), g.In2.CheckShape(n2, "in2"),
		g.Beta1.CheckShape(n1, "beta1"), g.Beta2.CheckShape(n2, "beta2"), g.Gamma2.CheckShape(n2, "gamma2"), g.Adj1.CheckShape(n1, "adj1"))
	if g.Gamma1.Off != nil {
		err = errors.Join(err, g.Gamma1.CheckShape(n1, "gamma1"))
	}
	return err
}

// ErrOutOfRange reports an entity ID or edge target that names no entity of
// the KB it points into — possible only in a graph installed from a file.
var ErrOutOfRange = errors.New("graph: entity ID outside its KB")

// ErrBadWeight reports an edge weight that is not strictly positive and
// finite — possible only in a graph installed from a file. The scoreboard
// tells an untouched candidate by its zero score, so a weight that can
// cancel a sum would let one candidate enter a row twice.
var ErrBadWeight = errors.New("graph: edge weight not strictly positive and finite")

// goodWeight reports whether an edge weight is strictly positive and finite.
func goodWeight(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// CheckIDs checks a row of entity IDs read from a graph that only passed
// CheckShape: ErrOutOfRange unless every ID names one of n entities.
func CheckIDs(ids []kb.EntityID, n int) error {
	if !kb.IDsBelow(ids, n) {
		return ErrOutOfRange
	}
	return nil
}

// CheckEdges checks a row of edges read from a graph that only passed
// CheckShape: ErrOutOfRange unless every target names one of n entities,
// else ErrBadWeight unless every weight is strictly positive and finite.
// Consumers that walk a few rows of such a graph check each row they read
// with it (or CheckIDs) instead of running CheckTargets over all of them.
func CheckEdges(es []Edge, n int) error {
	weighted := true
	for _, e := range es {
		if uint(e.To) >= uint(n) {
			return ErrOutOfRange
		}
		weighted = weighted && goodWeight(e.Weight())
	}
	if !weighted {
		return ErrBadWeight
	}
	return nil
}

// ContainsID is the membership test over a row of entity IDs read from a
// graph that only passed CheckShape: it checks the entries the scan reads
// (CheckIDs) — up to id when the row holds it, all of them when it does not
// — and is false with the error on a damaged one.
func ContainsID(ids []kb.EntityID, id kb.EntityID, n int) (bool, error) {
	i := slices.Index(ids, id)
	read := ids
	if i >= 0 {
		read = ids[:i+1]
	}
	if err := CheckIDs(read, n); err != nil {
		return false, err
	}
	return i >= 0, nil
}

// ContainsEdge is ContainsID over a row of edges (CheckEdges).
func ContainsEdge(es []Edge, to kb.EntityID, n int) (bool, error) {
	i := indexEdge(es, to)
	read := es
	if i >= 0 {
		read = es[:i+1]
	}
	if err := CheckEdges(read, n); err != nil {
		return false, err
	}
	return i >= 0, nil
}

// CheckTargets range-checks every entity ID and edge target of a graph that
// passed CheckShape — whatever a consumer later uses as an index must lie
// inside the array it indexes — and checks every edge weight (ErrBadWeight).
// It reads the whole graph, so only what vouches for the whole graph runs
// it: core's Substrate.Verify, which the snapshot writer calls, and the
// refusal to build a private graph at another K over a damaged pair. The
// batch resolve and the per-entity
// query kernels check the rows they read as they read them (CheckIDs,
// CheckEdges, addGamma). The row sets are scanned in chunks on e, and a
// target out of range anywhere is reported ahead of a bad weight anywhere.
func (g *Graph) CheckTargets(e *parallel.Engine, n1, n2 int) error {
	e = e.Chunked()
	idsBelow := func(ids []kb.EntityID, below int) bool {
		return !slices.Contains(parallel.MapSpans(e, len(ids), func(s parallel.Span) bool {
			return kb.IDsBelow(ids[s.Lo:s.Hi], below)
		}), false)
	}
	inRange := idsBelow(g.Alpha1.Flat, n2) && idsBelow(g.Alpha2.Flat, n1) && idsBelow(g.In2.Flat, n2) && idsBelow(g.Top1.Flat, n1)
	weighted := true
	type verdict struct{ inRange, weighted bool }
	for _, c := range []struct {
		edges []Edge
		below int
	}{{g.Beta1.Flat, n2}, {g.Beta2.Flat, n1}, {g.Gamma1.Flat, n2}, {g.Gamma2.Flat, n1}, {g.Adj1.Flat, n2}} {
		for _, v := range parallel.MapSpans(e, len(c.edges), func(s parallel.Span) verdict {
			v := verdict{true, true}
			for _, edge := range c.edges[s.Lo:s.Hi] {
				v.inRange = v.inRange && edge.To >= 0 && int(edge.To) < c.below
				v.weighted = v.weighted && goodWeight(edge.Weight())
			}
			return v
		}) {
			inRange, weighted = inRange && v.inRange, weighted && v.weighted
		}
	}
	switch {
	case !inRange:
		return ErrOutOfRange
	case !weighted:
		return ErrBadWeight
	}
	return nil
}
