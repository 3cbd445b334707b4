// Package matching implements MinoanER's non-iterative matching process
// (§4, Algorithm 2): four generic, schema-agnostic rules applied in a fixed
// order over the pruned disjunctive blocking graph —
//
//	R1  Name rule: candidates sharing a globally unique name match.
//	R2  Value rule: the top value candidate matches when valueSim ≥ 1.
//	R3  Rank aggregation: threshold-free fusion of the value- and
//	    neighbor-ranked candidate lists with trade-off θ.
//	R4  Reciprocity: a match survives only if both directed edges exist.
//
// i.e. M = (R1 ∨ R2 ∨ R3) ∧ R4 (Def. 4.1). Clean-clean semantics are
// enforced as in the paper: entities matched by an earlier rule are not
// examined again, and the final assignment is one-to-one (the Unique
// Mapping Clustering the paper shares with SiGMa/LINDA/RiMOM-IM).
package matching

import (
	"context"
	"sort"

	"minoaner/internal/eval"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Rule identifies which matching rule produced a match (Table 4 attribution).
type Rule uint8

// The four matching rules of Algorithm 2.
const (
	RuleNone  Rule = iota
	RuleName       // R1
	RuleValue      // R2
	RuleRank       // R3
)

// String returns the paper's rule label.
func (r Rule) String() string {
	switch r {
	case RuleName:
		return "R1"
	case RuleValue:
		return "R2"
	case RuleRank:
		return "R3"
	default:
		return "none"
	}
}

// Config controls Algorithm 2. The zero value disables everything; use
// DefaultConfig for the paper's configuration.
type Config struct {
	// Theta is the trade-off θ ∈ (0,1) between value-based ranks (weight θ)
	// and neighbor-based ranks (weight 1−θ) in R3. Paper default: 0.6.
	Theta float64
	// EnableR1..EnableR4 toggle individual rules (Table 4 ablations).
	EnableR1, EnableR2, EnableR3, EnableR4 bool
	// UseNeighbors controls whether R3 consumes the γ candidate lists.
	// Disabling it reproduces the paper's "No Neighbors" ablation.
	UseNeighbors bool
}

// DefaultConfig returns the paper's suggested global configuration (§6.1).
func DefaultConfig() Config {
	return Config{
		Theta:    0.6,
		EnableR1: true, EnableR2: true, EnableR3: true, EnableR4: true,
		UseNeighbors: true,
	}
}

// Match is one detected correspondence with its provenance.
type Match struct {
	Pair eval.Pair
	Rule Rule
}

// Result is the output of the matching process.
type Result struct {
	// Matches holds the surviving matches sorted by (E1, E2).
	Matches []Match
	// RemovedByR4 counts matches suggested by R1–R3 but discarded by the
	// reciprocity filter.
	RemovedByR4 int
}

// Pairs extracts the bare pairs of the result.
func (r *Result) Pairs() []eval.Pair {
	out := make([]eval.Pair, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.Pair
	}
	return out
}

// matcher carries the mutable state of one Algorithm 2 run.
type matcher struct {
	g        *graph.Graph
	k1, k2   *kb.KB
	cfg      Config
	eng      *parallel.Engine
	matched1 []bool
	matched2 []bool
	matches  []Match
}

// RunCtx executes Algorithm 2 on a graph whose E1-side γ rows are
// materialized (graph.BuildTimedCtx): the one-span form of RunShardedCtx,
// with Gamma1 standing in for the streamed rows.
func RunCtx(ctx context.Context, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config) (*Result, error) {
	whole := []parallel.Span{{Lo: 0, Hi: k1.Len()}}
	return RunShardedCtx(ctx, e, g, k1, k2, cfg, whole,
		func(context.Context, parallel.Span, []bool) (graph.Rows[graph.Edge], error) { return g.Gamma1, nil })
}

// sortMatches orders matches by (E1, E2) — the canonical output order for
// every span plan.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i].Pair, ms[j].Pair
		if a.E1 != b.E1 {
			return a.E1 < b.E1
		}
		return a.E2 < b.E2
	})
}

// commit records a match if both endpoints are still free, preserving the
// clean-clean one-to-one invariant.
func (m *matcher) commit(p eval.Pair, rule Rule) bool {
	if m.matched1[p.E1] || m.matched2[p.E2] {
		return false
	}
	m.matched1[p.E1] = true
	m.matched2[p.E2] = true
	m.matches = append(m.matches, Match{Pair: p, Rule: rule})
	return true
}

// runR1 applies the Name Matching Rule (Algorithm 2, lines 2–4): every α=1
// edge becomes a match. Edges are visited in entity order for determinism.
func (m *matcher) runR1() {
	for i := 0; i < m.g.Alpha1.Len(); i++ {
		for _, j := range m.g.Alpha1.Row(i) {
			m.commit(eval.Pair{E1: kb.EntityID(i), E2: j}, RuleName)
		}
	}
}

// runR2 applies the Value Matching Rule (lines 5–9): for every unmatched
// entity of the smaller KB, take its top value candidate and accept it when
// β ≥ 1 — i.e. the pair shares one globally unique token, or several
// infrequent ones. Commits are sequential in entity order; a commit marks
// only its own node on the walked side, so no later node's test depends on
// an earlier commit.
func (m *matcher) runR2() {
	fromE1 := m.k1.Len() <= m.k2.Len()
	matched, beta := m.matched1, m.g.Beta1
	if !fromE1 {
		matched, beta = m.matched2, m.g.Beta2
	}
	for i := range matched {
		row := beta.Row(i)
		if matched[i] || len(row) == 0 || row[0].Weight < 1 {
			continue
		}
		p := eval.Pair{E1: kb.EntityID(i), E2: row[0].To}
		if !fromE1 {
			p = eval.Pair{E1: row[0].To, E2: kb.EntityID(i)}
		}
		m.commit(p, RuleValue)
	}
}

// Rule R3, the Rank Aggregation Matching Rule (lines 10–23), applies to every
// remaining unmatched node of both KBs: each candidate scores
// θ·rank/|valCands| from the β list plus (1−θ)·rank/|ngbCands| from the γ
// list. A pair is matched when each side is the other's top aggregate
// candidate — the mutual-best reading of "there is no better candidate for
// ei than ej" combined with the paper's clean-clean Unique Mapping
// semantics. This interpretation is what reproduces the reported precision
// (Tables 3–4: R3 alone reaches 81–99% precision even though most entities
// of the larger KB have no true match; a single-sided top-candidate rule
// would match every such entity to noise). It also explains why the paper
// measures only marginal gains from R4: mutual agreement already implies
// reciprocal edges in almost all cases.
//
// Aggregation is parallel per node with one reusable bounded scoreboard per
// worker (the worker-local-scratch discipline of the β/γ passes); commits
// are sequential in entity order.
//
// RunShardedCtx drives it: pick2All first, then pick1At span by span.

// pick is one node's top aggregate candidate under R3 (NoEntity if the node
// is already matched or has no candidates).
type pick struct {
	to    kb.EntityID
	score float64
}

// aggBoard is the R3 worker scratch: a bounded sparse scoreboard over one
// node's fused candidates. Unlike β/γ — where an entity can touch
// unboundedly many candidates and the graph package uses dense per-worker
// arrays — R3's inputs are candidate rows already pruned to at most K each,
// so a linear list of ≤ 2K entries gives the same zero-allocation
// accumulation at O(K) memory per worker instead of O(|KB|).
type aggBoard struct {
	cands []graph.Edge // To = candidate, Weight = fused score so far
}

func newAggBoard() *aggBoard { return &aggBoard{cands: make([]graph.Edge, 0, 32)} }

// add accumulates a rank contribution onto a candidate (linear probe over
// the ≤ 2K live entries).
func (b *aggBoard) add(to kb.EntityID, w float64) {
	for i := range b.cands {
		if b.cands[i].To == to {
			b.cands[i].Weight += w
			return
		}
	}
	b.cands = append(b.cands, graph.Edge{To: to, Weight: w})
}

// best returns the candidate with the highest fused score, ties toward the
// lower entity ID — deterministic in any accumulation order, like the
// historical map scan. (kb.NoEntity, 0) when empty.
func (b *aggBoard) best() (kb.EntityID, float64) {
	if len(b.cands) == 0 {
		return kb.NoEntity, 0
	}
	best := kb.NoEntity
	bestScore := -1.0
	for _, c := range b.cands {
		if c.Weight > bestScore || (c.Weight == bestScore && c.To < best) {
			best, bestScore = c.To, c.Weight
		}
	}
	return best, bestScore
}

func (b *aggBoard) reset() { b.cands = b.cands[:0] }

// pick1At computes the R3 pick of E1 node i from its γ candidate row, which
// the caller holds only while i's span is live, accumulating on the caller's
// board.
func (m *matcher) pick1At(sb *aggBoard, i int, ngb []graph.Edge) pick {
	if m.matched1[i] {
		return pick{to: kb.NoEntity}
	}
	to, score := m.aggregate(sb, m.g.Beta1.Row(i), ngb)
	return pick{to, score}
}

// pick2All computes the R3 picks of every E2 node against the post-R2
// matched state — the snapshot taken before any R3 commit.
func (m *matcher) pick2All(ctx context.Context) ([]pick, error) {
	return parallel.MapLocalCtx(ctx, m.eng, m.k2.Len(), newAggBoard,
		func(sb *aggBoard, j int) (pick, error) {
			if m.matched2[j] {
				return pick{to: kb.NoEntity}, nil
			}
			to, score := m.aggregate(sb, m.g.Beta2.Row(j), m.g.Gamma2.Row(j))
			return pick{to, score}, nil
		})
}

// aggregate fuses the two ranked candidate lists of one node on the given
// board and returns the top candidate with its aggregate score (NoEntity if
// the node has no candidates). Ties break toward the lower entity ID; the
// board is reset before returning. Per-candidate additions follow the same
// value-then-neighbor order as the historical map accumulation, so the
// fused float scores are bit-identical.
func (m *matcher) aggregate(sb *aggBoard, valCands, ngbCands []graph.Edge) (kb.EntityID, float64) {
	if !m.cfg.UseNeighbors {
		ngbCands = nil
	}
	if len(valCands) == 0 && len(ngbCands) == 0 {
		return kb.NoEntity, 0
	}
	n := len(valCands)
	for idx, e := range valCands {
		rank := n - idx // first candidate gets rank n → score n/n
		sb.add(e.To, m.cfg.Theta*float64(rank)/float64(n))
	}
	n = len(ngbCands)
	for idx, e := range ngbCands {
		rank := n - idx
		sb.add(e.To, (1-m.cfg.Theta)*float64(rank)/float64(n))
	}
	best, bestScore := sb.best()
	sb.reset()
	return best, bestScore
}
