package stats

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// AttributeStat carries the name-worthiness statistics of one literal
// attribute (§2.2, "Entity Names"). Following [32] as cited by the paper,
// for name attributes support is defined over subjects:
//
//	support(p) = |subjects(p)| / |E|
//	discriminability(p) = |values(p)| / |instances(p)|
//	importance(p) = harmonic mean of the two
//
// High support means the attribute is present on most entities; high
// discriminability means its values are near-unique — exactly what makes a
// value usable as a name.
type AttributeStat struct {
	Attribute string
	// ID is the attribute's dense schema ID in the KB's kb.Schema.
	ID               kb.AttrID
	Subjects         int
	Instances        int
	DistinctValues   int
	Support          float64
	Discriminability float64
	Importance       float64
}

// attrCounts is one span's local tally: per-attribute raw statement count,
// per-attribute subject count (entities carrying the attribute), and
// per-attribute count of entity-distinct (attribute, value) rows — the
// elements pass 2 groups for the global distinct-value count.
type attrCounts struct {
	instances []int32
	subjects  []int32
	pairs     []int32
}

// AttributeImportancesCtx computes name-worthiness statistics for every
// literal attribute of the KB, sorted by decreasing importance (ties broken
// by attribute name).
//
// Like RelationImportancesCtx, the computation is flat counting over the
// columnar attribute spans: values were normalized and interned at KB build
// time (kb.ValueID), and each entity's statements are (AttrID,
// ValueID)-sorted, so subjects and per-entity distinct values are adjacency
// checks, and the global distinct-value count is a per-attribute
// sort+compact after a scatter fill — no tuple materialization, no maps.
func AttributeImportancesCtx(ctx context.Context, e *parallel.Engine, k *kb.KB) ([]AttributeStat, error) {
	sch := k.Schema()
	nAttr := sch.Attrs()
	if nAttr == 0 || k.Len() == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []AttributeStat{}, nil
	}
	ce := e.Chunked()
	// Pass 1: span-local counts merged in span order.
	locals, err := parallel.MapSpansCtx(ctx, ce, k.Len(), func(s parallel.Span) (attrCounts, error) {
		c := attrCounts{
			instances: make([]int32, nAttr),
			subjects:  make([]int32, nAttr),
			pairs:     make([]int32, nAttr),
		}
		for i := s.Lo; i < s.Hi; i++ {
			attrs, vals := k.AttributeColumns(kb.EntityID(i))
			for j, a := range attrs {
				c.instances[a]++
				if j == 0 || a != attrs[j-1] {
					c.subjects[a]++
				}
				if j == 0 || a != attrs[j-1] || vals[j] != vals[j-1] {
					c.pairs[a]++
				}
			}
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	agg := locals[0]
	for _, l := range locals[1:] {
		addCounts(agg.instances, l.instances)
		addCounts(agg.subjects, l.subjects)
		addCounts(agg.pairs, l.pairs)
	}
	// Pass 2: group the entity-distinct values by attribute, then count the
	// globally distinct ones per attribute with a sort+compact.
	off := prefixSums(agg.pairs)
	valsByAttr := make([]kb.ValueID, off[nAttr])
	cur := slices.Clone(off[:nAttr])
	err = ce.ForCtx(ctx, k.Len(), func(i int) error {
		attrs, vals := k.AttributeColumns(kb.EntityID(i))
		for j, a := range attrs {
			if j > 0 && a == attrs[j-1] && vals[j] == vals[j-1] {
				continue
			}
			valsByAttr[atomic.AddInt32(&cur[a], 1)-1] = vals[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	distinct := make([]int32, nAttr)
	err = ce.ForCtx(ctx, nAttr, func(a int) error {
		group := valsByAttr[off[a]:off[a+1]]
		slices.Sort(group)
		distinct[a] = countDistinctSorted(group)
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(k.Len())
	out := make([]AttributeStat, 0, nAttr)
	for a := 0; a < nAttr; a++ {
		if agg.instances[a] == 0 {
			continue // attribute absent from this KB (shared schema dictionary)
		}
		st := AttributeStat{
			Attribute:      sch.Attr(kb.AttrID(a)),
			ID:             kb.AttrID(a),
			Subjects:       int(agg.subjects[a]),
			Instances:      int(agg.instances[a]),
			DistinctValues: int(distinct[a]),
		}
		if n > 0 {
			st.Support = float64(st.Subjects) / n
		}
		st.Discriminability = float64(st.DistinctValues) / float64(st.Instances)
		st.Importance = harmonicMean(st.Support, st.Discriminability)
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b AttributeStat) int {
		if a.Importance != b.Importance {
			return cmp.Compare(b.Importance, a.Importance)
		}
		return cmp.Compare(a.Attribute, b.Attribute)
	})
	return out, nil
}

// NameAttributesCtx returns the global top-k attributes of highest
// importance; their literal values act as entity names (§2.2).
func NameAttributesCtx(ctx context.Context, e *parallel.Engine, k *kb.KB, topK int) ([]string, error) {
	stats, err := AttributeImportancesCtx(ctx, e, k)
	if err != nil {
		return nil, err
	}
	if topK > len(stats) {
		topK = len(stats)
	}
	names := make([]string, 0, topK)
	for _, s := range stats[:topK] {
		names = append(names, s.Attribute)
	}
	return names, nil
}

// NameLookup is the resolve-scoped evaluator of the name(e_i) function
// (§2.2): the name-attribute membership test is built ONCE per (KB,
// nameAttrs) pair as a flat bitset over kb.AttrID — not once per entity, as
// the historical NamesOf did with a fresh map — and per-entity evaluation
// walks the pre-normalized columnar span, so no normalization and no maps
// happen per call. Name blocking consults it for every entity of both KBs.
type NameLookup struct {
	k      *kb.KB
	isName []bool
	// empty/hasEmpty cache the ValueID of the empty normalized value, so the
	// ID-level walk can drop it without a string comparison per statement.
	empty    kb.ValueID
	hasEmpty bool
}

// NewNameLookup builds the lookup for one KB and its discovered name
// attributes. Attributes unknown to the KB's schema are ignored (they can
// match no statement).
func NewNameLookup(k *kb.KB, nameAttrs []string) *NameLookup {
	sch := k.Schema()
	isName := make([]bool, sch.Attrs())
	for _, a := range nameAttrs {
		if id, ok := sch.LookupAttr(a); ok {
			isName[id] = true
		}
	}
	nl := &NameLookup{k: k, isName: isName}
	nl.empty, nl.hasEmpty = sch.LookupValue("")
	return nl
}

// KB returns the KB the lookup was built for.
func (nl *NameLookup) KB() *kb.KB { return nl.k }

// Names returns the normalized name values of one entity — the same
// contract as NamesOf: empty normalized values dropped, duplicates removed,
// sorted for determinism.
func (nl *NameLookup) Names(id kb.EntityID) []string {
	attrs, vals := nl.k.AttributeColumns(id)
	sch := nl.k.Schema()
	var out []string
	for j, a := range attrs {
		if int(a) >= len(nl.isName) || !nl.isName[a] {
			continue
		}
		if j > 0 && a == attrs[j-1] && vals[j] == vals[j-1] {
			continue // adjacent duplicate within the sorted span
		}
		if s := sch.Value(vals[j]); s != "" {
			out = append(out, s)
		}
	}
	if len(out) < 2 {
		return out
	}
	// The same normalized value can appear under two different name
	// attributes; sort+compact handles the cross-attribute duplicates.
	slices.Sort(out)
	return slices.Compact(out)
}

// AppendNameValueIDs appends the deduplicated name ValueIDs of one entity to
// dst and returns the extended slice — the ID-level form of Names: the same
// statements qualify (name attribute, non-empty normalized value, duplicates
// removed), but values stay interned, so callers can count them into dense
// arrays without materializing a string per statement. The appended IDs are
// sorted numerically; Names sorts the corresponding strings, so the SETS
// agree while the orders differ.
func (nl *NameLookup) AppendNameValueIDs(dst []kb.ValueID, id kb.EntityID) []kb.ValueID {
	attrs, vals := nl.k.AttributeColumns(id)
	base := len(dst)
	for j, a := range attrs {
		if int(a) >= len(nl.isName) || !nl.isName[a] {
			continue
		}
		if j > 0 && a == attrs[j-1] && vals[j] == vals[j-1] {
			continue // adjacent duplicate within the sorted span
		}
		if nl.hasEmpty && vals[j] == nl.empty {
			continue
		}
		dst = append(dst, vals[j])
	}
	if len(dst)-base < 2 {
		return dst
	}
	// The same value can appear under two different name attributes;
	// sort+compact handles the cross-attribute duplicates (cf. Names).
	tail := dst[base:]
	slices.Sort(tail)
	return dst[:base+len(slices.Compact(tail))]
}

// NamesOf returns the normalized name values of one entity under the given
// name attributes (function name(e_i) of §2.2). Empty normalized values are
// dropped; duplicates are removed; order is sorted for determinism.
//
// This is the per-call compatibility form (it re-normalizes values and
// rebuilds the attribute set every time); resolve-scoped callers iterate a
// NameLookup instead.
func NamesOf(d *kb.Description, nameAttrs []string) []string {
	isName := make(map[string]bool, len(nameAttrs))
	for _, a := range nameAttrs {
		isName[a] = true
	}
	set := make(map[string]struct{})
	for _, av := range d.Attrs {
		if !isName[av.Attribute] {
			continue
		}
		n := kb.NormalizeName(av.Value)
		if n != "" {
			set[n] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
