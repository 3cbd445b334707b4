package blocking

import (
	"context"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// NameIndex is the columnar counterpart of the TokenIndex for name blocking
// (§3.1, h_N). Names are pre-normalized interned kb.ValueIDs inside the KB's
// schema dictionary, so instead of grouping name strings under a
// map[string]*Block — one string materialization plus one map probe per
// (entity, name) — the index is CSR-shaped: a per-span counting pass over
// ValueIDs followed by a scatter fill of flat []EntityID member arrays, the
// exact member-fill discipline of the token index (span-local counts merged in
// span order, disjoint fill regions, member lists sorted by construction, so
// the result is independent of worker count and scheduling).
//
// The slot space is the value dictionary. When both KBs share one kb.Schema
// (NewBuilderWithDicts), the ValueIDs ARE the slots and translation is free;
// otherwise the per-KB value strings are merged into a joint dictionary once,
// paying one string hash per DISTINCT value per KB — never per statement.
//
// A slot is live iff both sides indexed at least one entity under it — only
// live slots suggest clean-clean comparisons. Carried() lists the slots E2
// carries in key order, and Collection() the live ones among them as
// blocks: name blocking as the paper defines it (core's oracle tests check
// it against a naive grouping of the names).
type NameIndex struct {
	// sch is the shared value dictionary when both KBs intern into one
	// Schema; keys holds per-slot strings in the merged-dictionary case.
	// Exactly one of the two is set.
	sch  *kb.Schema
	keys []string
	// t1/t2 translate KB-local ValueIDs to slots; nil means identity.
	t1, t2 []int32
	// mem1/mem2 with their CSR offsets hold the per-slot member lists:
	// mem[off[s]:off[s+1]] are the entities of one KB carrying name slot s,
	// sorted by ID.
	mem1, mem2 []kb.EntityID
	off1, off2 []int32
	live       int
}

// NewNameIndexLookupsCtx builds the name index over two prebuilt name
// lookups (each knows its KB and name-attribute set).
func NewNameIndexLookupsCtx(ctx context.Context, e *parallel.Engine, nl1, nl2 *stats.NameLookup) (*NameIndex, error) {
	ix := &NameIndex{}
	s1, s2 := nl1.KB().Schema(), nl2.KB().Schema()
	var n int
	if s1 == s2 {
		ix.sch = s1
		n = s1.Values()
	} else {
		joint := kb.NewInterner()
		ix.t1 = mergeValues(s1, joint)
		ix.t2 = mergeValues(s2, joint)
		n = joint.Len()
		ix.keys = make([]string, n)
		for s := 0; s < n; s++ {
			ix.keys[s] = joint.TokenString(kb.TokenID(s))
		}
	}
	var err error
	ix.mem1, ix.off1, err = nameMemberFill(ctx, e, nl1, ix.t1, n)
	if err != nil {
		return nil, err
	}
	ix.mem2, ix.off2, err = nameMemberFill(ctx, e, nl2, ix.t2, n)
	if err != nil {
		return nil, err
	}
	for s := 0; s < n; s++ {
		if ix.off1[s+1] > ix.off1[s] && ix.off2[s+1] > ix.off2[s] {
			ix.live++
		}
	}
	return ix, nil
}

// nameMemberFill builds one side's CSR member array over n name slots —
// the token index's member fill with the entity's deduplicated name
// ValueIDs in place of its token IDs. The per-entity ID scratch is span-local and reused across
// entities; both passes derive the same ID sets, so counts and fill agree.
func nameMemberFill(ctx context.Context, e *parallel.Engine, nl *stats.NameLookup, t []int32, n int) ([]kb.EntityID, []int32, error) {
	k := nl.KB()
	locals, err := parallel.MapSpansCtx(ctx, e, k.Len(), func(s parallel.Span) ([]int32, error) {
		counts := make([]int32, n)
		var scratch []kb.ValueID
		for i := s.Lo; i < s.Hi; i++ {
			scratch = nl.AppendNameValueIDs(scratch[:0], kb.EntityID(i))
			for _, v := range scratch {
				counts[valueSlot(t, v)]++
			}
		}
		return counts, nil
	})
	if err != nil {
		return nil, nil, err
	}
	off := spanCursors(locals, n)
	mem := make([]kb.EntityID, off[n])
	err = e.ForSpansIndexedCtx(ctx, k.Len(), func(pi int, s parallel.Span) error {
		cur := locals[pi]
		var scratch []kb.ValueID
		for i := s.Lo; i < s.Hi; i++ {
			scratch = nl.AppendNameValueIDs(scratch[:0], kb.EntityID(i))
			for _, v := range scratch {
				slot := valueSlot(t, v)
				mem[cur[slot]] = kb.EntityID(i)
				cur[slot]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return mem, off, nil
}

// mergeValues interns every value of sch into joint and returns the
// ValueID → joint-slot translation table.
func mergeValues(sch *kb.Schema, joint *kb.Interner) []int32 {
	n := sch.Values()
	t := make([]int32, n)
	for id := 0; id < n; id++ {
		t[id] = int32(joint.Intern(sch.Value(kb.ValueID(id))))
	}
	return t
}

// valueSlot maps a KB-local ValueID through an optional translation table.
func valueSlot(t []int32, v kb.ValueID) int32 {
	if t == nil {
		return int32(v)
	}
	return t[v]
}

// key returns the block key of a slot.
func (ix *NameIndex) key(s int32) string {
	if ix.sch != nil {
		return ix.sch.Value(kb.ValueID(s))
	}
	return ix.keys[s]
}

// Live returns the number of live name slots — the block count Collection
// materializes.
func (ix *NameIndex) Live() int { return ix.live }

// Carried returns the name slots that at least one E2 entity carries,
// sorted by key (kb.SortedOrder; the keys are distinct), with their keys.
func (ix *NameIndex) Carried() (slots []int32, keys []string) {
	n := 0
	for s := range len(ix.off2) - 1 {
		if ix.off2[s+1] > ix.off2[s] {
			n++
		}
	}
	unsorted, unsortedKeys := make([]int32, 0, n), make([]string, 0, n)
	for s := range len(ix.off2) - 1 {
		if ix.off2[s+1] > ix.off2[s] {
			unsorted = append(unsorted, int32(s))
			unsortedKeys = append(unsortedKeys, ix.key(int32(s)))
		}
	}
	slots, keys = make([]int32, n), make([]string, n)
	for i, r := range kb.SortedOrder(unsortedKeys) {
		slots[i], keys[i] = unsorted[r], unsortedKeys[r]
	}
	return slots, keys
}

// Members returns the entities of each KB that carry name slot s, sorted by
// ID. They alias the index's CSR arrays and are read-only.
func (ix *NameIndex) Members(s int32) (e1, e2 []kb.EntityID) {
	return ix.mem1[ix.off1[s]:ix.off1[s+1]], ix.mem2[ix.off2[s]:ix.off2[s+1]]
}

// Collection materializes the live slots — those of Carried that an E1
// entity carries too — as a block collection sorted by key, with member
// lists aliasing the index's CSR arrays (read-only, as block members always
// were).
func (ix *NameIndex) Collection() *Collection {
	slots, keys := ix.Carried()
	blocks := make([]Block, 0, ix.live)
	for i, s := range slots {
		if e1, e2 := ix.Members(s); len(e1) > 0 {
			blocks = append(blocks, Block{Key: keys[i], E1: e1, E2: e2})
		}
	}
	return &Collection{Blocks: blocks}
}
