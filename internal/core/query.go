// The per-entity query path: resolve ONE new (or re-described) entity
// against a frozen substrate without a batch run. QueryEntity tokenizes the
// description against the shared interner and schema, probes the purged
// TokenIndex and the name table, runs the β/γ/rank-aggregation kernel
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

// queryState is the lazily built read-only state shared by every query on
// one substrate: the pair's graph (per-query γ rows are computed on demand
// from it, never materialized for all of E1) and the scratch pool.
type queryState struct {
	g    *graph.Graph
	pool sync.Pool // *querySlot
	// graphCheck is the deferred check of an installed graph's targets and
	// weights (nil for a built one), run by Verify and before a private
	// graph is built; a batch resolution checks the rows it reads instead.
	graphCheck *kb.Deferred
}

// newQueryState wraps a graph with a scratch pool sized for the pair.
func (s *Substrate) newQueryState(g *graph.Graph) *queryState {
	st := &queryState{g: g}
	n2, k := s.k2.Len(), s.cfg.TopK
	st.pool.New = func() any {
		return &querySlot{qs: graph.NewQueryScratch(n2, k), agg: matching.NewAggScratch()}
	}
	return st
}

// lookupName returns the carriers of one normalized name, by binary search
// over the name table: none where no E2 entity carries it. Over a table
// from parts it checks what it touches: a hit is exact whatever the order,
// so only a miss — or a damaged key or sole carrier — runs the table's
// deferred check, whose failure every later lookup reports.
func (s *Substrate) lookupName(n string) (e1, e2 []kb.EntityID, err error) {
	t := s.names
	if err := s.nameCheck.Known(); err != nil {
		return nil, nil, err
	}
	i, ok := sort.Find(t.Keys.Len(), func(i int) int { return strings.Compare(n, t.Keys.At(i)) })
	if ok {
		e1, e2 = t.E1.Row(i), t.E2.Row(i)
	}
	if !ok || t.Keys.Err() != nil || !soleIn(e1, s.k1.Len()) || !soleIn(e2, s.k2.Len()) {
		if err := s.nameCheck.Run(); err != nil || !ok {
			return nil, nil, err
		}
	}
	return e1, e2, nil
}

// soleIn reports whether a carrier row's sole carrier, where it has one,
// is an entity of the n its KB holds.
func soleIn(row []kb.EntityID, n int) bool {
	return len(row) != 1 || (row[0] >= 0 && int(row[0]) < n)
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
	st := s.newQueryState(pg.g)
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
		for _, n := range stats.NamesOf(&d, sub.nameAttrs1) {
			e1, e2, err := sub.lookupName(n)
			if err != nil {
				return nil, err
			}
			if len(e2) != 1 {
				continue
			}
			if self != kb.NoEntity {
				if len(e1) == 1 && e1[0] == self {
					alpha = append(alpha, e2[0])
				}
			} else if len(e1) == 0 {
				alpha = append(alpha, e2[0])
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
