package blocking

import (
	"context"
	"slices"
	"strings"
	"sync/atomic"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// TokenIndex is the columnar inverted token index behind token blocking and
// the β (valueSim) stage of the disjunctive blocking graph. Where the old
// path grouped entities under string keys and probed a map[string]*Block
// once per (entity, token), the TokenIndex is CSR-shaped: flat []EntityID
// member arrays addressed by dense token slots, with the per-token valueSim
// weight 1/log2(EF₁·EF₂+1) precomputed once per index instead of once per
// entity touch.
//
// The slot space is the joint token dictionary of the two KBs. When both KBs
// share one kb.Interner (NewBuilderWithInterner), the KB token IDs ARE the
// slots and translation is free; otherwise a per-KB translation table is
// built once, with a single dictionary lookup per distinct token — never per
// occurrence.
//
// A slot is "live" iff its weight is positive: tokens present in only one KB
// (no cross-KB comparisons) and tokens removed by Block Purging are dead and
// contribute nothing. Collection() materializes exactly the live slots as
// key-sorted blocks, byte-identical to the historical string-grouped token
// blocking (the retained buildCollection reference the tests pin against).
type TokenIndex struct {
	// dict is the joint token dictionary: its IDs are the slots, and its
	// strings the block keys.
	dict *kb.Interner
	// t1/t2 translate KB-local token IDs to slots; nil means identity.
	t1, t2 []int32
	// o1/m1 and o2/m2 are the per-slot member CSRs: slot s's members of KB i
	// (entities containing the token, sorted by ID) are mi[oi[s]:oi[s+1]].
	// Kept flat — never as per-slot slice headers — so a snapshot loader can
	// install memory-mapped views with O(1) work and zero allocation.
	o1, o2 []int32
	m1, m2 []kb.EntityID
	// weight[s] is the precomputed per-token valueSim contribution; 0 marks
	// a dead slot.
	weight []float64
	// live counts slots with positive weight (== Collection().Len()).
	live int
}

// mem1/mem2 return one slot's member list of each side.
func (ix *TokenIndex) mem1(s int32) []kb.EntityID { return ix.m1[ix.o1[s]:ix.o1[s+1]] }
func (ix *TokenIndex) mem2(s int32) []kb.EntityID { return ix.m2[ix.o2[s]:ix.o2[s+1]] }

// NewTokenIndexCtx builds the token index for a KB pair with two passes
// over the entities per side: per-span occurrence counts (the CSR offsets)
// and a scatter fill of the flat member arrays. Both passes run over
// per-worker-local count arrays merged in span order — the BuildEFCtx
// rewrite — instead of one shared array with an atomic RMW per token
// occurrence: exact per-span write cursors make the fill regions disjoint
// (no atomics) and leave every member list sorted by entity ID by
// construction (ascending spans × ascending entities within a span), so the
// per-token sort the atomic fill needed disappears entirely. The result is
// independent of worker count and scheduling.
func NewTokenIndexCtx(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB) (*TokenIndex, error) {
	ix, _, err := NewPurgedTokenIndexCtx(ctx, e, k1, k2, 0)
	return ix, err
}

// NewPurgedTokenIndexCtx is NewTokenIndexCtx followed by
// PurgeAbove(maxComparisons), and the purged-token count: the same weights,
// live tokens and members of every live token. Both sides are counted
// before either is filled, so the tokens left dead are known in time and,
// with purging on, the fill writes the members of live tokens only — no
// reader looks at a dead token's members — and the build never holds the
// rest: on the benchmark pairs, four fifths or more of all members.
func NewPurgedTokenIndexCtx(ctx context.Context, e *parallel.Engine, k1, k2 *kb.KB, maxComparisons int64) (*TokenIndex, int, error) {
	ix := &TokenIndex{}
	d1, d2 := k1.TokenDict(), k2.TokenDict()
	if d1 != nil && d1 == d2 {
		ix.dict = d1
	} else {
		// Disjoint dictionaries: merge into a joint space once, paying one
		// string hash per DISTINCT token per KB rather than per occurrence.
		joint := kb.NewInterner()
		ix.t1 = mergeDict(d1, joint)
		ix.t2 = mergeDict(d2, joint)
		ix.dict = joint
	}
	n := ix.dict.Len()
	locals1, err := slotCounts(ctx, e, k1, ix.t1, n)
	if err != nil {
		return nil, 0, err
	}
	locals2, err := slotCounts(ctx, e, k2, ix.t2, n)
	if err != nil {
		return nil, 0, err
	}
	// A purged slot is marked -1 until the tally below. With purging on,
	// every slot left dead loses its counts, and with them its members.
	ix.weight = make([]float64, n)
	err = e.Chunked().ForCtx(ctx, n, func(s int) error {
		n1, n2 := total(locals1, s), total(locals2, s)
		switch {
		case n1 > 0 && n2 > 0 && maxComparisons > 0 && int64(n1)*int64(n2) > maxComparisons:
			ix.weight[s] = -1
		case n1 > 0 && n2 > 0:
			ix.weight[s] = stats.TokenWeight(int(n1), int(n2))
			return nil
		}
		if maxComparisons > 0 {
			for _, lc := range locals1 {
				lc[s] = 0
			}
			for _, lc := range locals2 {
				lc[s] = 0
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Tally outside the parallel pass (a shared counter inside it would
	// race).
	purged := 0
	for s, w := range ix.weight {
		switch {
		case w < 0:
			ix.weight[s] = 0
			purged++
		case w > 0:
			ix.live++
		}
	}
	if ix.m1, ix.o1, err = scatter(ctx, e, k1, ix.t1, locals1, n); err != nil {
		return nil, 0, err
	}
	if ix.m2, ix.o2, err = scatter(ctx, e, k2, ix.t2, locals2, n); err != nil {
		return nil, 0, err
	}
	return ix, purged, nil
}

// total is slot s's count over the per-span counts of one side.
func total(locals [][]int32, s int) int32 {
	var c int32
	for _, lc := range locals {
		c += lc[s]
	}
	return c
}

// slotCounts counts one side's token occurrences per slot, one count array
// per span: the local counting pass of a member fill, merged in span order
// by spanCursors. Static spans (the engine's own scheduler is honored, but
// callers pass the static engine) bound the transient memory to one count
// array per worker.
func slotCounts(ctx context.Context, e *parallel.Engine, k *kb.KB, t []int32, n int) ([][]int32, error) {
	return parallel.MapSpansCtx(ctx, e, k.Len(), func(s parallel.Span) ([]int32, error) {
		counts := make([]int32, n)
		for i := s.Lo; i < s.Hi; i++ {
			for _, tid := range k.TokenIDs(kb.EntityID(i)) {
				counts[slotOf(t, tid)]++
			}
		}
		return counts, nil
	})
}

// scatter fills one side's member CSR over n slots from its per-span
// counts, which it turns into write cursors: the span at position j writes
// slot s starting at off[s] + Σ_{j'<j} counts[j'][s]. Write regions are
// exact and disjoint, so the fill needs no atomics, and because spans
// ascend and entities ascend within a span, every member list comes out
// sorted by entity ID with no per-slot sort. A slot whose count is 0 gets
// no members, even where the side has occurrences of it.
func scatter(ctx context.Context, e *parallel.Engine, k *kb.KB, t []int32, locals [][]int32, n int) ([]kb.EntityID, []int32, error) {
	off := spanCursors(locals, n)
	mem := make([]kb.EntityID, off[n])
	err := e.ForSpansIndexedCtx(ctx, k.Len(), func(pi int, s parallel.Span) error {
		cur := locals[pi]
		for i := s.Lo; i < s.Hi; i++ {
			for _, tid := range k.TokenIDs(kb.EntityID(i)) {
				slot := slotOf(t, tid)
				if c := cur[slot]; c >= 0 {
					mem[c] = kb.EntityID(i)
					cur[slot] = c + 1
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return mem, off, nil
}

// spanCursors turns per-span local slot counts into global CSR offsets and,
// in place, into per-span write cursors: the span at position j writes slot s
// starting at off[s] + Σ_{j'<j} counts[j'][s] (an exclusive prefix sum over
// spans on top of the global offsets); a slot the span counted nothing of
// gets cursor -1, and takes no write. Shared by the token and name member
// fills — it is what makes the scatter regions exact and disjoint.
func spanCursors(locals [][]int32, n int) []int32 {
	totals := make([]int32, n)
	for _, lc := range locals {
		for s, c := range lc {
			totals[s] += c
		}
	}
	off := offsets(totals)
	running := totals // reuse: totals[s] becomes the next write position
	copy(running, off[:n])
	for _, lc := range locals {
		for s, c := range lc {
			if c == 0 {
				lc[s] = -1
				continue
			}
			lc[s] = running[s]
			running[s] += c
		}
	}
	return off
}

// memberFillAtomic is the pre-refactor fill: one shared count array with an
// atomic add per token occurrence under the chunked scheduler, then a
// per-slot sort to restore determinism. Kept unexported as the reference
// side of BenchmarkTokenIndexMembers and the agreement test.
func memberFillAtomic(ctx context.Context, e *parallel.Engine, k *kb.KB, t []int32, n int) ([]kb.EntityID, []int32, error) {
	ce := e.Chunked()
	counts := make([]int32, n)
	err := ce.ForCtx(ctx, k.Len(), func(i int) error {
		for _, tid := range k.TokenIDs(kb.EntityID(i)) {
			atomic.AddInt32(&counts[slotOf(t, tid)], 1)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	off := offsets(counts)
	mem := make([]kb.EntityID, off[n])
	cur := slices.Clone(off[:n])
	err = ce.ForCtx(ctx, k.Len(), func(i int) error {
		for _, tid := range k.TokenIDs(kb.EntityID(i)) {
			s := slotOf(t, tid)
			mem[atomic.AddInt32(&cur[s], 1)-1] = kb.EntityID(i)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	err = ce.ForCtx(ctx, n, func(s int) error {
		slices.Sort(mem[off[s]:off[s+1]])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return mem, off, nil
}

// mergeDict interns every token of src into joint and returns the
// src-ID → joint-slot translation table.
func mergeDict(src *kb.Interner, joint *kb.Interner) []int32 {
	if src == nil {
		return []int32{}
	}
	n := src.Len()
	t := make([]int32, n)
	for id := 0; id < n; id++ {
		t[id] = int32(joint.Intern(src.TokenString(kb.TokenID(id))))
	}
	return t
}

// slotOf maps a KB-local token ID through an optional translation table.
func slotOf(t []int32, tid kb.TokenID) int32 {
	if t == nil {
		return int32(tid)
	}
	return t[tid]
}

// offsets turns per-slot counts into CSR offsets (len(counts)+1 entries).
func offsets(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	var sum int32
	for s, c := range counts {
		off[s] = sum
		sum += c
	}
	off[len(counts)] = sum
	return off
}

// Live returns the number of live token slots — the block count Collection
// would materialize (|B_T| of Table 2).
func (ix *TokenIndex) Live() int { return ix.live }

// TotalComparisons returns ‖B‖ over the live slots: the aggregate cross-KB
// comparison count Collection() would report.
func (ix *TokenIndex) TotalComparisons() int64 {
	var total int64
	for s, w := range ix.weight {
		if w > 0 {
			n1 := int64(ix.o1[s+1] - ix.o1[s])
			n2 := int64(ix.o2[s+1] - ix.o2[s])
			total += n1 * n2
		}
	}
	return total
}

// key returns the block key of a slot.
func (ix *TokenIndex) key(s int32) string { return ix.dict.TokenString(kb.TokenID(s)) }

// ForEachSharedTokens walks the live tokens of one token-ID list in
// token-string order — the same order the historical string-keyed path used,
// so downstream floating-point accumulation stays bit-identical — calling f
// with the precomputed token weight and the members of the OTHER KB. fromE1
// states which side the tokens belong to. The list is an entity's span of its
// KB's token CSR (kb.KB.TokenIDs), or, for a description that is not a
// member of either KB, the query's token strings resolved through the side's
// own dictionary (kb.Interner.Lookup, read-only) in token-string order,
// reproducing exactly the walk a built description would take. The receiver
// is never mutated, so concurrent walks are safe.
func (ix *TokenIndex) ForEachSharedTokens(tids []kb.TokenID, fromE1 bool, f func(w float64, others []kb.EntityID)) {
	t, off, mem := ix.t1, ix.o2, ix.m2
	if !fromE1 {
		t, off, mem = ix.t2, ix.o1, ix.m1
	}
	for _, tid := range tids {
		s := slotOf(t, tid)
		if w := ix.weight[s]; w > 0 {
			f(w, mem[off[s]:off[s+1]])
		}
	}
}

// Collection materializes the live slots as a block collection sorted by
// key, with member lists aliasing the index (callers must treat blocks as
// read-only, as they always had to). The result is byte-identical to the
// historical string-grouped token blocking for the same purge state.
func (ix *TokenIndex) Collection() *Collection {
	liveSlots := make([]int32, 0, ix.live)
	for s, w := range ix.weight {
		if w > 0 {
			liveSlots = append(liveSlots, int32(s))
		}
	}
	slices.SortFunc(liveSlots, func(a, b int32) int {
		return strings.Compare(ix.key(a), ix.key(b))
	})
	blocks := make([]Block, len(liveSlots))
	for i, s := range liveSlots {
		blocks[i] = Block{Key: ix.key(s), E1: ix.mem1(s), E2: ix.mem2(s)}
	}
	return &Collection{Blocks: blocks}
}

// PurgeAbove returns a view of the index with every live token whose
// comparison count |b1|·|b2| exceeds maxComparisons marked dead, plus the
// number of purged tokens — Block Purging (§3.3) applied directly to the
// columnar index, with the same predicate as PurgeAbove on a Collection. A
// non-positive threshold keeps everything. The receiver is unchanged.
func (ix *TokenIndex) PurgeAbove(maxComparisons int64) (*TokenIndex, int) {
	if maxComparisons <= 0 {
		return ix, 0
	}
	out := *ix
	out.weight = slices.Clone(ix.weight)
	purged := 0
	for s, w := range out.weight {
		if w == 0 {
			continue
		}
		if int64(len(ix.mem1(int32(s))))*int64(len(ix.mem2(int32(s)))) > maxComparisons {
			out.weight[s] = 0
			out.live--
			purged++
		}
	}
	return &out, purged
}
