// The per-entity query path: resolve ONE new (or re-described) entity
// against a frozen substrate without a batch run. QueryEntity tokenizes the
// description against the shared interner and schema, probes the purged
// TokenIndex and the name-usage index, runs the β/γ/rank-aggregation kernel
// for just that entity and returns ranked candidates with rule provenance —
// the progressive-resolution primitive of Simonini et al. applied to
// MinoanER's non-iterative rules. Queries reuse the batch scoreboards
// through a per-query scratch pool, so concurrent queries on one substrate
// are race-free and allocation-light.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// EntityQuery is one entity description to resolve against a substrate's K2.
// It mirrors what a kb.Builder would have ingested for an E1 entity:
// literal attribute values plus relation statements whose objects are K1
// entity URIs. Objects that do not resolve to a K1 entity are demoted to
// literal attributes, exactly as kb.Builder demotes unresolved URI objects
// at build time.
type EntityQuery struct {
	// URI labels the query entity (informational; it is never looked up).
	URI string
	// Attrs are the literal attribute statements.
	Attrs []kb.AttributeValue
	// Objects are the relation statements (predicate → object URI).
	Objects []QueryObject
	// SelfURI, when non-empty, names the K1 entity this query re-describes:
	// the unique-name rule then reproduces the batch α semantics for that
	// entity (its own name usage does not block a 1×1 name match) and the
	// reciprocity flag is evaluated against its back-edges. Leave empty for
	// a genuinely new entity.
	SelfURI string

	// err records damage QueryFromEntity met reading the entity from a
	// snapshot-loaded KB; QueryEntity refuses the query with it.
	err error
}

// QueryObject is one relation statement of an EntityQuery.
type QueryObject struct {
	Predicate string
	Object    string
}

// QueryMatch is one ranked candidate for a queried entity.
type QueryMatch struct {
	// Candidate is the K2 entity; URI its identifier.
	Candidate kb.EntityID
	URI       string
	// Rule records which matching rule claims the candidate: R1 for a
	// unique-name match, R2 for a top value candidate with valueSim ≥ 1, R3
	// for the top rank-aggregation candidate, RuleNone for the remaining
	// ranked candidates (graph evidence without a rule claim).
	Rule matching.Rule
	// Score is the fused rank-aggregation score (θ·value + (1−θ)·neighbor
	// rank contributions); ValueSim and NeighborSim the retained β and γ
	// weights feeding it (0 when the candidate fell outside that row).
	Score       float64
	ValueSim    float64
	NeighborSim float64
	// Reciprocal reports R4's back-edge test: whether the candidate's own
	// pruned candidate rows point back at the re-described entity. Always
	// false for a query without SelfURI — a new entity cannot appear in the
	// frozen graph, so R4 is advisory there.
	Reciprocal bool
}

// QueryFromEntity builds the EntityQuery that re-describes an existing K1
// entity — statement for statement, with SelfURI set — so callers and tests
// can replay KB members through the query path. It reads that one entity
// (kb.KB.Describe); if its rows in a snapshot-loaded KB are damaged, the
// query carries the error and QueryEntity refuses it.
func QueryFromEntity(k *kb.KB, id kb.EntityID) EntityQuery {
	d, err := k.Describe(id)
	q := EntityQuery{URI: d.URI, SelfURI: d.URI, Attrs: d.Attrs, err: err}
	for _, r := range d.Relations {
		q.Objects = append(q.Objects, QueryObject{Predicate: r.Predicate, Object: k.URI(r.Object)})
	}
	return q
}

// nameUsers is one normalized name's usage across the KB pair: how many
// entities of each side carry it, and the sole carrier when that count is 1
// (the only case α consults).
type nameUsers struct {
	n1, n2 int32
	e1, e2 kb.EntityID
}

// queryState is the lazily built read-only state shared by every query on
// one substrate: the pair's graph (per-query γ rows are computed on demand
// from it, never materialized for all of E1), the name-usage index behind
// the α rule, and the scratch pool.
type queryState struct {
	g *graph.Graph
	// names is built by nameUsagesOf or installed from a snapshot (its
	// columns may then alias a memory-mapped region).
	names NameUsages
	pool  sync.Pool // *querySlot
	// The deferred checks of an installed state (nil for a built one): the
	// graph's targets and weights (run by Verify and before a private graph
	// is built; a batch resolution checks the rows it reads instead), and
	// the name index's order and carriers.
	graphCheck, namesCheck *kb.Deferred
}

// newQueryState wraps a graph and a name index with a scratch pool sized
// for the pair.
func (s *Substrate) newQueryState(g *graph.Graph, names NameUsages) *queryState {
	st := &queryState{g: g, names: names}
	n2, k := s.k2.Len(), s.cfg.TopK
	st.pool.New = func() any {
		return &querySlot{qs: graph.NewQueryScratch(n2, k), agg: matching.NewAggScratch()}
	}
	return st
}

// lookupName resolves one normalized name by binary search over the name
// index. Over an installed index it checks what it touches: a hit is exact
// whatever the order, so only a miss — or a damaged entry — runs the
// index's deferred check, whose failure every later lookup reports.
func (st *queryState) lookupName(n string, n1, n2 int) (nameUsers, bool, error) {
	t := st.names
	if err := st.namesCheck.Known(); err != nil {
		return nameUsers{}, false, err
	}
	i, ok := sort.Find(t.Len(), func(i int) int { return strings.Compare(n, t.Names.At(i)) })
	if !ok || t.Names.Err() != nil || !t.carriersIn(i, n1, n2) {
		if err := st.namesCheck.Run(); err != nil || !ok {
			return nameUsers{}, false, err
		}
	}
	return nameUsers{n1: t.N1[i], n2: t.N2[i], e1: t.E1[i], e2: t.E2[i]}, true, nil
}

// querySlot is the scratch one in-flight query owns.
type querySlot struct {
	qs  *graph.QueryScratch
	agg *matching.AggScratch
}

// queryState returns the substrate's query state, building it — and the
// shared graph under it, if no one has yet — on first use. The build is
// serialized by lazyMu but retryable (unlike sync.Once): a cancelled context
// fails that call without poisoning the substrate.
func (s *Substrate) queryState(ctx context.Context) (*queryState, error) {
	if st := s.query.Load(); st != nil {
		return st, nil
	}
	s.lazyMu.Lock()
	defer s.lazyMu.Unlock()
	if st := s.query.Load(); st != nil {
		return st, nil
	}
	pg, err := s.sharedGraphLocked(ctx, parallel.New(s.cfg.Workers))
	if err != nil {
		return nil, err
	}
	st := s.newQueryState(pg.g, nameUsagesOf(s))
	s.query.Store(st)
	return st, nil
}

// PrewarmQueries forces the lazy query state to exist, so the first
// QueryEntity call does not pay the one-time graph construction (a no-op on
// the graph when a ResolveWith already built it). Idempotent and safe to
// call concurrently.
func (s *Substrate) PrewarmQueries(ctx context.Context) error {
	_, err := s.queryState(ctx)
	return err
}

// nameUsagesOf builds the pair's name-usage index. Every (name, side,
// entity) of both KBs is gathered as a name ValueID — NameLookup already
// deduplicates an entity's names, so each entity counts once per name, the
// multiplicity the name blocks see — and read as a string through its KB's
// schema (the KBs may not share one). One kb.SortedOrder puts them in name
// order, equal names in gathering order: E1 before E2, entities ascending.
// Run-length encoding that order yields the index, each side's last
// carrier included.
func nameUsagesOf(s *Substrate) NameUsages {
	var vals []kb.ValueID
	var ents []kb.EntityID
	gather := func(names *stats.NameLookup, n int) {
		for i := range n {
			base := len(vals)
			vals = names.AppendNameValueIDs(vals, kb.EntityID(i))
			for range len(vals) - base {
				ents = append(ents, kb.EntityID(i))
			}
		}
	}
	gather(s.names1, s.k1.Len())
	side1 := len(vals)
	gather(s.names2, s.k2.Len())
	strs := make([]string, len(vals))
	sch1, sch2 := s.k1.Schema(), s.k2.Schema()
	for r, v := range vals[:side1] {
		strs[r] = sch1.Value(v)
	}
	for r, v := range vals[side1:] {
		strs[side1+r] = sch2.Value(v)
	}
	order := kb.SortedOrder(strs)
	// Two entries name the same string where their ValueIDs are equal, if
	// they were read through one schema.
	sameName := func(a, b uint32) bool {
		if sch1 == sch2 || (int(a) < side1) == (int(b) < side1) {
			return vals[a] == vals[b]
		}
		return strs[a] == strs[b]
	}
	n := 0
	for i := range order {
		if i == 0 || !sameName(order[i-1], order[i]) {
			n++
		}
	}
	u := NameUsages{N1: make([]int32, n), N2: make([]int32, n), E1: make([]kb.EntityID, n), E2: make([]kb.EntityID, n)}
	names := make([]string, n)
	j := -1
	for i, r := range order {
		if i == 0 || !sameName(order[i-1], r) {
			j++
			names[j] = strs[r]
		}
		if int(r) < side1 {
			u.N1[j]++
			u.E1[j] = ents[r]
		} else {
			u.N2[j]++
			u.E2[j] = ents[r]
		}
	}
	u.Names = kb.FreezeStrings(names, false)
	return u
}

// QueryEntity resolves one entity description against the substrate's K2
// and returns ranked candidates, best first: unique-name (α) candidates
// lead in entity order — the batch matcher commits R1 before everything —
// followed by the fused rank-aggregation order (decreasing score, ties
// toward the lower entity ID). Of cfg only the matching-side parameters
// apply (Theta, Rules); candidate rows are pruned to the substrate's TopK,
// and the substrate's frozen name attributes, relation ranks and purged
// index drive the probes. For a query that re-describes a K1 entity
// (SelfURI), the emitted rows and rule claims equal the batch pipeline's
// per-entity view of that entity — the equivalence the property tests pin —
// and each candidate's R4 back-edge is read from its α₂, β₂ and γ₂ rows,
// checked as the batch R4 checks them: on a graph from a snapshot, a
// damaged entry the test scans fails the query (graph.ErrOutOfRange,
// graph.ErrBadWeight).
//
// Concurrent QueryEntity calls on one substrate are race-free: the shared
// state is read-only and each call takes its own scratch from the pool.
func QueryEntity(ctx context.Context, sub *Substrate, q EntityQuery, cfg Config) ([]QueryMatch, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if q.err != nil {
		return nil, q.err
	}
	st, err := sub.queryState(ctx)
	if err != nil {
		return nil, err
	}
	ix, err := sub.TokenIndex(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	self := kb.NoEntity
	if q.SelfURI != "" {
		if self = sub.k1.Lookup(q.SelfURI); self == kb.NoEntity {
			if err := sub.k1.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: query SelfURI %q is not a K1 entity", q.SelfURI)
		}
	}
	mc := cfg.rules()

	// Statement normalization, mirroring kb.Builder: objects resolving to a
	// K1 entity are relations, everything else a literal attribute.
	attrs := q.Attrs
	type relStmt struct {
		group int32 // PredID, or a synthetic key past the schema for unknown predicates
		rank  int32
		obj   kb.EntityID
	}
	var rels []relStmt
	var extraAttrs []kb.AttributeValue
	var unknownPreds map[string]int32
	sch := sub.k1.Schema()
	for _, o := range q.Objects {
		obj := sub.k1.Lookup(o.Object)
		if obj == kb.NoEntity {
			extraAttrs = append(extraAttrs, kb.AttributeValue{Attribute: o.Predicate, Value: o.Object})
			continue
		}
		stmt := relStmt{obj: obj}
		if pid, ok := sch.LookupPred(o.Predicate); ok {
			stmt.group = int32(pid)
			stmt.rank = sub.ranks1[pid]
		} else {
			// A predicate K1 never saw has no global importance; it sorts
			// after every known predicate and ranks below all of them.
			if unknownPreds == nil {
				unknownPreds = make(map[string]int32)
			}
			key, ok := unknownPreds[o.Predicate]
			if !ok {
				key = int32(sch.Preds()) + int32(len(unknownPreds))
				unknownPreds[o.Predicate] = key
			}
			stmt.group = key
			stmt.rank = math.MaxInt32
		}
		rels = append(rels, stmt)
	}
	if len(extraAttrs) > 0 {
		attrs = append(slices.Clone(attrs), extraAttrs...)
	}

	// β probe: the description's sorted distinct tokens, resolved against
	// the shared dictionary WITHOUT interning (queries never mutate the
	// substrate); unknown tokens index no block and are dropped, which is
	// exactly how the batch walk treats them.
	tok := kb.NewTokenizer()
	vals := make([]string, 0, len(attrs))
	for _, av := range attrs {
		vals = append(vals, av.Value)
	}
	dict := sub.k1.TokenDict()
	var tids []kb.TokenID
	for _, t := range tok.TokenSetOf(vals...) {
		if id, ok := dict.Lookup(t); ok {
			tids = append(tids, id)
		}
	}

	slot := st.pool.Get().(*querySlot)
	defer st.pool.Put(slot)
	beta, err := graph.BetaRowForTokens(ix, tids, true, slot.qs, sub.cfg.TopK)
	if err != nil {
		return nil, err
	}

	// γ probe: the query's top-neighbor list over the frozen relation ranks,
	// propagated through the frozen β adjacency.
	var gamma []graph.Edge
	if len(rels) > 0 {
		slices.SortFunc(rels, func(a, b relStmt) int {
			if a.group != b.group {
				if a.group < b.group {
					return -1
				}
				return 1
			}
			return 0
		})
		groups := make([]int32, len(rels))
		ranks := make([]int32, len(rels))
		objs := make([]kb.EntityID, len(rels))
		for i, r := range rels {
			groups[i], ranks[i], objs[i] = r.group, r.rank, r.obj
		}
		top := stats.TopNeighborsOf(groups, ranks, objs, sub.cfg.RelN)
		if gamma, err = st.g.Gamma1RowFor(top, slot.qs); err != nil {
			return nil, err
		}
	}

	// α probe: a normalized name shared with exactly one K2 entity and used
	// by no K1 entity other than the queried one itself.
	var alpha []kb.EntityID
	if mc.EnableR1 {
		d := kb.Description{Attrs: attrs}
		n1, n2 := sub.k1.Len(), sub.k2.Len()
		for _, n := range stats.NamesOf(&d, sub.nameAttrs1) {
			u, ok, err := st.lookupName(n, n1, n2)
			if err != nil {
				return nil, err
			}
			if !ok || u.n2 != 1 {
				continue
			}
			if self != kb.NoEntity {
				if u.n1 == 1 && u.e1 == self {
					alpha = append(alpha, u.e2)
				}
			} else if u.n1 == 0 {
				alpha = append(alpha, u.e2)
			}
		}
		slices.Sort(alpha)
		alpha = slices.Compact(alpha)
	}

	return st.rank(sub, slot, mc, self, alpha, beta, gamma)
}

// ReplayEntity answers the query that re-describes K1 entity e — what
// QueryEntity returns for QueryFromEntity(sub.K1(), e) — from the rows the
// pair's graph stores for e: its α row, β row and top-neighbor list are read
// (graph.StoredRows1 checks them), and only its γ row is computed; the R4
// back-edges are checked as in QueryEntity. Nothing of e is read as strings
// or looked up in a dictionary. cfg applies as in QueryEntity, and
// concurrent calls are as safe.
func ReplayEntity(ctx context.Context, sub *Substrate, e kb.EntityID, cfg Config) ([]QueryMatch, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	st, err := sub.queryState(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n1, n2 := sub.k1.Len(), sub.k2.Len()
	if e < 0 || int(e) >= n1 {
		return nil, fmt.Errorf("core: replay of entity %d: not a K1 entity", e)
	}
	alpha, beta, top, err := st.g.StoredRows1(e, n1, n2)
	if err != nil {
		return nil, err
	}
	mc := cfg.rules()
	if !mc.EnableR1 {
		alpha = nil
	}
	slot := st.pool.Get().(*querySlot)
	defer st.pool.Put(slot)
	var gamma []graph.Edge
	if len(top) > 0 {
		if gamma, err = st.g.Gamma1RowFor(top, slot.qs); err != nil {
			return nil, err
		}
	}
	return st.rank(sub, slot, mc, e, alpha, beta, gamma)
}

// rank is the tail both query kernels share. It fuses a node's β and γ rows
// into R3's ranking and emits the candidates: α candidates first, in entity
// order, then the ranking, each with its rule claim and — for a query that
// re-describes K1 entity self — R4's reciprocity bit.
func (st *queryState) rank(sub *Substrate, slot *querySlot, mc matching.Config, self kb.EntityID, alpha []kb.EntityID, beta, gamma []graph.Edge) ([]QueryMatch, error) {
	// Fused ranking (R3's scoring); element 0 is the batch aggregate pick.
	ranking := matching.RankAggregateRow(slot.agg, beta, gamma, mc.Theta, mc.UseNeighbors)

	r2cand := kb.NoEntity
	if mc.EnableR2 && len(beta) > 0 && beta[0].Weight() >= 1 {
		r2cand = beta[0].To
	}
	weightIn := func(row []graph.Edge, to kb.EntityID) float64 {
		for _, e := range row {
			if e.To == to {
				return e.Weight()
			}
		}
		return 0
	}
	emit := func(c kb.EntityID, rule matching.Rule, score float64) QueryMatch {
		return QueryMatch{
			Candidate:   c,
			URI:         sub.k2.URI(c),
			Rule:        rule,
			Score:       score,
			ValueSim:    weightIn(beta, c),
			NeighborSim: weightIn(gamma, c),
		}
	}

	out := make([]QueryMatch, 0, len(alpha)+len(ranking))
	for _, c := range alpha {
		out = append(out, emit(c, matching.RuleName, weightIn(ranking, c)))
	}
	for i, e := range ranking {
		if slices.Contains(alpha, e.To) {
			continue
		}
		rule := matching.RuleNone
		switch {
		case e.To == r2cand:
			rule = matching.RuleValue
		case i == 0 && mc.EnableR3:
			rule = matching.RuleRank
		}
		out = append(out, emit(e.To, rule, e.Weight()))
	}
	// R4's back-edge test, checked as the batch R4 checks it: a damaged
	// entry it scans fails the query.
	if self != kb.NoEntity {
		for i := range out {
			var err error
			if out[i].Reciprocal, err = st.g.HasEdge2(out[i].Candidate, self, sub.k1.Len()); err != nil {
				return nil, err
			}
		}
	}
	// The dictionaries, URI tables and schema of a snapshot-loaded pair
	// check the strings they touch; damage they met fails the query.
	if err := errors.Join(sub.k1.Err(), sub.k2.Err()); err != nil {
		return nil, err
	}
	return out, nil
}
