// Package stats computes the schema-agnostic statistics MinoanER derives
// from a pair of KBs (§2 of the paper): Entity Frequency of tokens (the IDF
// analogue behind valueSim), relation support / discriminability / importance
// (Defs. 2.2–2.4), per-entity top-N neighbors and their reverse index, and
// the global top-k name attributes whose values act as entity names.
//
// All statistics are produced by data-parallel passes over the KB through
// the parallel engine, mirroring the Spark stages of §4.1. Since the schema
// axis is interned at KB build time (kb.PredID / kb.AttrID / kb.ValueID over
// a kb.Schema) and every entity's relations and attribute statements are
// stored as ID-sorted columnar spans, the whole stage runs as flat counting
// passes over dense-ID arrays — no string hashing, no per-triple tuple
// materialization, no maps on the hot path.
package stats

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync/atomic"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// EFIndex holds the Entity Frequency of every token in one KB: the number of
// entity descriptions whose values contain the token (Def. 2.1). Counts are
// columnar — a flat array indexed by the KB's interned TokenIDs — so both
// construction and lookup avoid string hashing.
type EFIndex struct {
	dict     *kb.Interner
	counts   []int32
	distinct int
}

// BuildEFCtx computes the EF index with a parallel count-by-token-ID pass,
// honoring cancellation. Each worker counts into its own local array — one
// static span per worker — and the partials are summed in span order, so the
// pass is free of atomic contention on hot tokens (integer sums make the
// merge trivially deterministic).
func BuildEFCtx(ctx context.Context, e *parallel.Engine, k *kb.KB) (*EFIndex, error) {
	dict := k.TokenDict()
	n := 0
	if dict != nil {
		n = dict.Len()
	}
	counts, err := efCountsLocal(ctx, e, k, n)
	if err != nil {
		return nil, err
	}
	ix := &EFIndex{dict: dict, counts: counts}
	for _, c := range counts {
		if c > 0 {
			ix.distinct++
		}
	}
	return ix, nil
}

// efCountsLocal is the per-worker-local counting pass behind BuildEFCtx.
// Static spans (not the chunked scheduler) keep the transient memory at one
// count array per worker; the per-entity walk is cheap enough that static
// partitioning does not straggle.
func efCountsLocal(ctx context.Context, e *parallel.Engine, k *kb.KB, n int) ([]int32, error) {
	locals, err := parallel.MapSpansCtx(ctx, e, k.Len(), func(s parallel.Span) ([]int32, error) {
		counts := make([]int32, n)
		for i := s.Lo; i < s.Hi; i++ {
			for _, id := range k.TokenIDs(kb.EntityID(i)) {
				counts[id]++
			}
		}
		return counts, nil
	})
	if err != nil {
		return nil, err
	}
	if len(locals) == 0 {
		return make([]int32, n), nil
	}
	counts := locals[0]
	for _, l := range locals[1:] {
		addCounts(counts, l)
	}
	return counts, nil
}

// efCountsAtomic is the pre-refactor counting pass (shared array, one atomic
// add per token occurrence). Kept unexported as the reference side of
// BenchmarkBuildEF's before/after comparison.
func efCountsAtomic(ctx context.Context, e *parallel.Engine, k *kb.KB, n int) ([]int32, error) {
	counts := make([]int32, n)
	err := e.Chunked().ForCtx(ctx, k.Len(), func(i int) error {
		for _, id := range k.TokenIDs(kb.EntityID(i)) {
			atomic.AddInt32(&counts[id], 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// EF returns the entity frequency of token t (0 if the token never occurs).
func (ix *EFIndex) EF(t string) int {
	if ix.dict == nil {
		return 0
	}
	id, ok := ix.dict.Lookup(t)
	if !ok {
		return 0
	}
	return ix.EFByID(id)
}

// EFByID returns the entity frequency of an interned token of Dict(). IDs
// interned after the index was built (the dictionary may be shared and keep
// growing) were not seen by the counting pass and report 0.
func (ix *EFIndex) EFByID(id kb.TokenID) int {
	if int(id) >= len(ix.counts) {
		return 0
	}
	return int(ix.counts[id])
}

// Dict returns the token dictionary the index counts against.
func (ix *EFIndex) Dict() *kb.Interner { return ix.dict }

// DistinctTokens returns the number of distinct tokens in the KB. (The
// dictionary may be shared with another KB; only tokens that actually occur
// in this KB are counted.)
func (ix *EFIndex) DistinctTokens() int { return ix.distinct }

// RelationStat carries the support, discriminability and importance of one
// relation predicate (Defs. 2.2–2.4).
type RelationStat struct {
	Predicate string
	// ID is the predicate's dense schema ID in the KB's kb.Schema.
	ID kb.PredID
	// Instances is |instances(p)|: the number of distinct (subject, object)
	// pairs connected by p.
	Instances int
	// Objects is |objects(p)|: the number of distinct objects of p.
	Objects int
	// Support = |instances(p)| / |E|².
	Support float64
	// Discriminability = |objects(p)| / |instances(p)|.
	Discriminability float64
	// Importance is the harmonic mean of Support and Discriminability.
	Importance float64
}

// RelationImportancesCtx computes per-predicate statistics for all relations
// of the KB. The returned slice is sorted by decreasing importance, breaking
// ties by predicate name so the global order (Algorithm 1 line 37) is
// deterministic.
//
// The computation is three flat passes over the columnar relation spans,
// mirroring blocking.TokenIndex: (1) chunked per-span local instance counts
// (per-entity spans are (PredID, Object)-sorted, so duplicate statements are
// adjacent and distinct (subject, object) pairs cost one comparison each),
// merged in span order; (2) a scatter fill grouping the distinct instances'
// objects by predicate; (3) a per-predicate sort+compact counting distinct
// objects. No string keys, no per-triple tuples, no maps.
func RelationImportancesCtx(ctx context.Context, e *parallel.Engine, k *kb.KB) ([]RelationStat, error) {
	sch := k.Schema()
	nPred := sch.Preds()
	if nPred == 0 || k.Len() == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []RelationStat{}, nil
	}
	ce := e.Chunked()
	// Pass 1: distinct-instance counts per predicate, per-span local arrays
	// merged in span order (the schema axis is tiny, so a local array per
	// chunk costs nothing and removes all write sharing).
	locals, err := parallel.MapSpansCtx(ctx, ce, k.Len(), func(s parallel.Span) ([]int32, error) {
		counts := make([]int32, nPred)
		for i := s.Lo; i < s.Hi; i++ {
			preds, objs := k.RelationColumns(kb.EntityID(i))
			for j := range preds {
				if j > 0 && preds[j] == preds[j-1] && objs[j] == objs[j-1] {
					continue // duplicate (s, p, o) statement
				}
				counts[preds[j]]++
			}
		}
		return counts, nil
	})
	if err != nil {
		return nil, err
	}
	inst := locals[0]
	for _, l := range locals[1:] {
		addCounts(inst, l)
	}
	// Pass 2: group the distinct instances' objects by predicate (CSR
	// counting pass + atomic-cursor scatter fill).
	off := prefixSums(inst)
	objsByPred := make([]kb.EntityID, off[nPred])
	cur := slices.Clone(off[:nPred])
	err = ce.ForCtx(ctx, k.Len(), func(i int) error {
		preds, objs := k.RelationColumns(kb.EntityID(i))
		for j := range preds {
			if j > 0 && preds[j] == preds[j-1] && objs[j] == objs[j-1] {
				continue
			}
			objsByPred[atomic.AddInt32(&cur[preds[j]], 1)-1] = objs[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Pass 3: distinct objects per predicate via sort+compact of its group.
	objCount := make([]int32, nPred)
	err = ce.ForCtx(ctx, nPred, func(p int) error {
		group := objsByPred[off[p]:off[p+1]]
		slices.Sort(group)
		objCount[p] = countDistinctSorted(group)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(k.Len())
	stats := make([]RelationStat, 0, nPred)
	for p := 0; p < nPred; p++ {
		if inst[p] == 0 {
			continue // predicate absent from this KB (shared schema dictionary)
		}
		st := RelationStat{
			Predicate: sch.Pred(kb.PredID(p)),
			ID:        kb.PredID(p),
			Instances: int(inst[p]),
			Objects:   int(objCount[p]),
		}
		if n > 0 {
			st.Support = float64(st.Instances) / (n * n)
		}
		st.Discriminability = float64(st.Objects) / float64(st.Instances)
		st.Importance = harmonicMean(st.Support, st.Discriminability)
		stats = append(stats, st)
	}
	slices.SortFunc(stats, func(a, b RelationStat) int {
		if a.Importance != b.Importance {
			return cmp.Compare(b.Importance, a.Importance)
		}
		return cmp.Compare(a.Predicate, b.Predicate)
	})
	return stats, nil
}

// addCounts accumulates the span-local counts of src into dst element-wise —
// the deterministic (integer-sum) reduce behind every per-worker-local
// counting pass in this package.
func addCounts(dst, src []int32) {
	for i, c := range src {
		dst[i] += c
	}
}

// countDistinctSorted returns the number of distinct values in a sorted
// slice via adjacent comparison, without modifying it.
func countDistinctSorted[T comparable](group []T) int32 {
	if len(group) == 0 {
		return 0
	}
	d := int32(1)
	for j := 1; j < len(group); j++ {
		if group[j] != group[j-1] {
			d++
		}
	}
	return d
}

// prefixSums turns per-ID counts into CSR offsets (len(counts)+1 entries).
func prefixSums(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	var sum int32
	for i, c := range counts {
		off[i] = sum
		sum += c
	}
	off[len(counts)] = sum
	return off
}

func harmonicMean(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// RelationRanks is the columnar globalOrder of Algorithm 1 (line 37): a flat
// array indexed by kb.PredID giving each predicate's position in the
// importance order (0 = most important). Predicates absent from stats (a
// shared schema dictionary may hold the other KB's predicates) rank last.
func RelationRanks(k *kb.KB, stats []RelationStat) []int32 {
	ranks := make([]int32, k.Schema().Preds())
	for p := range ranks {
		ranks[p] = int32(len(stats))
	}
	for i, s := range stats {
		ranks[s.ID] = int32(i)
	}
	return ranks
}

// TopNeighborsRanksCtx returns, for every entity of the KB, its top
// neighbors: the objects of its top-n most important relations (localOrder
// of Algorithm 1, lines 36–43), ranked by the dense RelationRanks array.
// Neighbor lists are deduplicated and sorted by entity ID.
func TopNeighborsRanksCtx(ctx context.Context, e *parallel.Engine, k *kb.KB, ranks []int32, n int) ([][]kb.EntityID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return make([][]kb.EntityID, k.Len()), nil
	}
	return parallel.MapCtx(ctx, e, k.Len(), func(i int) ([]kb.EntityID, error) {
		return topNeighborRow(k, ranks, n, i), nil
	})
}

// predSpan is one distinct predicate's subrange of an entity's relation span.
type predSpan struct {
	rank   int32
	lo, hi int32
}

// topNeighborRow computes localOrder(e) and the resulting deduplicated,
// ID-sorted top-neighbor list of one entity — an allocation-lean walk over
// the entity's pre-sorted relation span: distinct predicates are adjacent
// runs, localOrder is a sort of those few runs by global rank, and the
// neighbor set is one gather + sort + compact. No maps.
func topNeighborRow(k *kb.KB, ranks []int32, n, i int) []kb.EntityID {
	preds, objs := k.RelationColumns(kb.EntityID(i))
	if len(preds) == 0 {
		return nil
	}
	var spansBuf [8]predSpan
	spans := spansBuf[:0]
	lo := 0
	for j := 1; j <= len(preds); j++ {
		if j == len(preds) || preds[j] != preds[lo] {
			spans = append(spans, predSpan{ranks[preds[lo]], int32(lo), int32(j)})
			lo = j
		}
	}
	return gatherTopSpans(spans, objs, n)
}

// gatherTopSpans applies localOrder selection to pre-built predicate spans:
// keep the n most important spans (sorting only when there are more than n,
// exactly like the historical inline code, so tie handling under the
// unstable sort is reproduced operation for operation) and gather their
// deduplicated, ID-sorted objects. Shared by the per-entity columnar row and
// the synthetic-entity query path, which is what keeps the two bit-identical.
func gatherTopSpans(spans []predSpan, objs []kb.EntityID, n int) []kb.EntityID {
	if len(spans) > n {
		// localOrder(e): distinct relations by global importance rank.
		slices.SortFunc(spans, func(a, b predSpan) int { return cmp.Compare(a.rank, b.rank) })
		spans = spans[:n]
	}
	total := 0
	for _, sp := range spans {
		total += int(sp.hi - sp.lo)
	}
	out := make([]kb.EntityID, 0, total)
	for _, sp := range spans {
		out = append(out, objs[sp.lo:sp.hi]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TopNeighborsOf computes the top-neighbor list of one SYNTHETIC entity —
// a description that is not a member of the KB, as the per-entity query path
// sees it — from its relation statements given as parallel slices: groups
// assigns statements of the same predicate the same key (ascending, the way
// the columnar relation spans are predicate-sorted), ranks gives each
// statement its predicate's RelationRanks position, and objs the resolved
// neighbor entities. Statements must be sorted by group. For an entity whose
// statements mirror a KB member's relation columns, the result is identical
// to that entity's TopNeighborsRanksCtx row.
func TopNeighborsOf(groups, ranks []int32, objs []kb.EntityID, n int) []kb.EntityID {
	if n <= 0 || len(groups) == 0 {
		return nil
	}
	var spansBuf [8]predSpan
	spans := spansBuf[:0]
	lo := 0
	for j := 1; j <= len(groups); j++ {
		if j == len(groups) || groups[j] != groups[lo] {
			spans = append(spans, predSpan{ranks[lo], int32(lo), int32(j)})
			lo = j
		}
	}
	return gatherTopSpans(spans, objs, n)
}

// ValueSim computes Def. 2.1 directly from the two descriptions and EF
// indices:
//
//	valueSim(ei, ej) = Σ_{t ∈ tokens(ei) ∩ tokens(ej)} 1 / log2(EF₁(t)·EF₂(t) + 1)
//
// The production pipeline derives the same quantity from token-block sizes
// (Algorithm 1 line 14); this direct form is the reference implementation
// used by tests and by Figure 2.
func ValueSim(di, dj *kb.Description, ef1, ef2 *EFIndex) float64 {
	ti, tj := di.TokenIDs(), dj.TokenIDs()
	d1, d2 := di.Dict(), dj.Dict()
	sum := 0.0
	// Both token-ID slices are ordered by token string: linear merge
	// intersection over dictionary strings, no per-call materialization.
	a, b := 0, 0
	for a < len(ti) && b < len(tj) {
		sa, sb := d1.TokenString(ti[a]), d2.TokenString(tj[b])
		switch {
		case sa < sb:
			a++
		case sa > sb:
			b++
		default:
			sum += TokenWeight(EFOf(ef1, d1, ti[a], sa), EFOf(ef2, d2, tj[b], sb))
			a++
			b++
		}
	}
	return sum
}

// EFOf resolves an entity frequency from an interned ID when the index was
// built over the same dictionary, falling back to the string lookup when the
// caller mixed dictionaries. It is the one place the "ID fast path vs string
// fallback" rule lives; every EF consumer should go through it.
func EFOf(ix *EFIndex, dict *kb.Interner, id kb.TokenID, s string) int {
	if ix.dict == dict {
		return ix.EFByID(id)
	}
	return ix.EF(s)
}

// TokenWeight is the contribution of one shared token: 1/log2(EF₁·EF₂+1).
// A token unique to both KBs (EF₁·EF₂ = 1) contributes 1, the paper's
// maximum per-token contribution. Frequencies below 1 are clamped so the
// weight stays finite even for degenerate indices.
func TokenWeight(ef1, ef2 int) float64 {
	if ef1 < 1 {
		ef1 = 1
	}
	if ef2 < 1 {
		ef2 = 1
	}
	prod := float64(ef1) * float64(ef2)
	return 1 / math.Log2(prod+1)
}
