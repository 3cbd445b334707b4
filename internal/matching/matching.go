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
	"cmp"
	"context"
	"fmt"

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
	has1     []bool // per R1/R2 match (matches' prefix), demand's α/β verdict on E1→E2
}

// GammaFor supplies the E1-side γ candidate rows (graph.Graph.Gamma1Rows
// behind a timing wrapper in the core pipeline). The returned set must hold
// one row per E1 entity. need flags, per E1 entity, the rows Algorithm 2
// can read (see demand); a row whose flag is false may come back empty.
// RunOnDemandCtx calls it once, after R2 and the E2-side R3 picks. An
// error, such as a damaged input the rows follow, ends the run.
type GammaFor func(ctx context.Context, need []bool) (graph.Rows[graph.Edge], error)

// RunOnDemandCtx executes Algorithm 2 — the one matcher loop — over a graph
// whose E1-side γ rows are not held: once R2 and the E2-side R3 picks have
// fixed which rows the rules can read (demand), those rows are pulled from
// gammaFor in one walk, and R3 and R4 read them there.
// Candidate evaluation in R2/R3 is skewed per entity, so those passes use
// the dynamic chunked scheduler; cancellation is observed between rules and
// between chunks within a rule.
//
// The output does not depend on the worker count: R1 and R2 commit in
// entity order; R3 takes its E2-side pick snapshot before any R3 commit,
// computes every E1-side pick, and then commits in ascending E1 order; R4 —
// both directed edges must exist in the pruned graph (lines 24–26) — reads
// the graph and the γ₁ rows only.
//
// Only the γ rows the rules can read are asked for. R3 can commit an E1
// entity only if some E2 entity picks it, so no other E1 entity is
// aggregated, and no other row is built for R3.
//
// g may come from a file with only its shape checked (graph.CheckShape):
// every rule checks the α, β and γ₂ entries it reads before it uses them
// (graph.CheckIDs, CheckEdges, ContainsID, ContainsEdge), so a damaged
// entry gives graph.ErrOutOfRange or graph.ErrBadWeight before any result
// that reads it, and a run that does not read it is not affected.
func RunOnDemandCtx(ctx context.Context, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config, gammaFor GammaFor) (*Result, error) {
	m := &matcher{
		g: g, k1: k1, k2: k2, cfg: cfg, eng: e.Chunked(),
		matched1: make([]bool, k1.Len()),
		matched2: make([]bool, k2.Len()),
		// The assignment is one-to-one, so this bound is never outgrown.
		matches: make([]Match, 0, min(k1.Len(), k2.Len())),
	}
	if cfg.EnableR1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := m.runR1(); err != nil {
			return nil, err
		}
	}
	if cfg.EnableR2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := m.runR2(); err != nil {
			return nil, err
		}
	}
	var pick2 []kb.EntityID
	if cfg.EnableR3 {
		var err error
		if pick2, err = m.pick2All(ctx); err != nil {
			return nil, err
		}
	}
	need, cand, err := m.demand(pick2)
	if err != nil {
		return nil, err
	}
	gamma1, err := gammaFor(ctx, need)
	if err != nil {
		return nil, err
	}
	if gamma1.Len() != k1.Len() {
		return nil, fmt.Errorf("matching: gammaFor returned %d rows for %d entities", gamma1.Len(), k1.Len())
	}
	if cfg.EnableR3 {
		picks, err := parallel.MapLocalCtx(ctx, m.eng, k1.Len(), newAggBoard,
			func(sb *aggBoard, i int) (kb.EntityID, error) {
				return m.pick1At(sb, cand, i, gamma1.Row(i))
			})
		if err != nil {
			return nil, err
		}
		for i, to := range picks {
			if to != kb.NoEntity && pick2[to] == kb.EntityID(i) {
				m.commit(eval.Pair{E1: kb.EntityID(i), E2: to}, RuleRank)
			}
		}
	}
	res := &Result{}
	if cfg.EnableR4 {
		// Each test reads the graph and the γ₁ rows only, so they run in
		// parallel; the filter keeps the matches' order.
		keep, err := parallel.MapCtx(ctx, m.eng, len(m.matches), func(idx int) (bool, error) {
			return m.reciprocal(idx, gamma1)
		})
		if err != nil {
			return nil, err
		}
		kept := m.matches[:0]
		for idx, match := range m.matches {
			if keep[idx] {
				kept = append(kept, match)
			} else {
				res.RemovedByR4++
			}
		}
		m.matches = kept
	}
	res.Matches = sortMatches(m.matches, k1.Len())
	return res, nil
}

// RunCtx executes Algorithm 2 on a graph whose E1-side γ rows are
// materialized (graph.BuildTimedCtx): RunOnDemandCtx with Gamma1 standing
// in for the demanded rows.
func RunCtx(ctx context.Context, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config) (*Result, error) {
	return RunOnDemandCtx(ctx, e, g, k1, k2, cfg,
		func(context.Context, []bool) (graph.Rows[graph.Edge], error) { return g.Gamma1, nil })
}

// demandEveryRow makes demand ask for every γ row and every unmatched E1
// entity's R3 pick. Only tests set it, to show the narrow demand changes no
// output.
var demandEveryRow = false

// demand returns, per E1 entity, whether Algorithm 2 can read its γ row
// after R2 (need), and whether R3 can commit it (cand). R3 commits an
// unmatched E1 entity only with an E2 entity that picks it (pick2), so only
// those are candidates, and it reads a candidate's row only to fuse
// neighbor evidence. R4 reads the row of an R1 or R2 match whose E1→E2 edge
// the α and β rows do not hold. An R3 match needs nothing more: with
// neighbor evidence its row is already needed, and without it its E2 entity
// comes from the β row, where R4 finds the edge. The demand is taken
// once, before R3 commits anything, so the workers that build the rows
// read a value nothing writes. It checks the α and β rows it scans, and
// keeps each match's verdict for R4 (has1).
func (m *matcher) demand(pick2 []kb.EntityID) (need, cand []bool, err error) {
	need, cand = make([]bool, len(m.matched1)), make([]bool, len(m.matched1))
	if demandEveryRow {
		for i := range need {
			need[i], cand[i] = true, m.cfg.EnableR3 && !m.matched1[i]
		}
		return need, cand, nil
	}
	for _, i := range pick2 {
		if i != kb.NoEntity && !m.matched1[i] {
			cand[i], need[i] = true, m.cfg.UseNeighbors
		}
	}
	if m.cfg.EnableR4 {
		m.has1 = make([]bool, len(m.matches))
		for idx, match := range m.matches {
			p := match.Pair
			has, err := m.hasEdge1NoGamma(p)
			if err != nil {
				return nil, nil, err
			}
			m.has1[idx] = has
			if !has {
				need[p.E1] = true
			}
		}
	}
	return need, cand, nil
}

// sortMatches returns the matches ordered by (E1, E2) — the canonical
// output order whatever order they were committed in. No two share an E1 entity (commit
// keeps the assignment one-to-one), so each is placed by its E1 ID, below
// n1, without comparisons.
func sortMatches(ms []Match, n1 int) []Match {
	at := make([]int32, n1) // 1 + the match's index, 0 where E1 has none
	for idx, m := range ms {
		at[m.Pair.E1] = int32(idx + 1)
	}
	sorted := make([]Match, 0, len(ms))
	for _, idx := range at {
		if idx > 0 {
			sorted = append(sorted, ms[idx-1])
		}
	}
	return sorted
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
// It reads every α₁ row, and checks each before it commits from it.
func (m *matcher) runR1() error {
	for i := 0; i < m.g.Alpha1.Len(); i++ {
		row := m.g.Alpha1.Row(i)
		if err := graph.CheckIDs(row, m.k2.Len()); err != nil {
			return err
		}
		for _, j := range row {
			m.commit(eval.Pair{E1: kb.EntityID(i), E2: j}, RuleName)
		}
	}
	return nil
}

// runR2 applies the Value Matching Rule (lines 5–9): for every unmatched
// entity of the smaller KB, take its top value candidate and accept it when
// β ≥ 1 — i.e. the pair shares one globally unique token, or several
// infrequent ones. Commits are sequential in entity order; a commit marks
// only its own node on the walked side, so no later node's test depends on
// an earlier commit. The first edge of a row is all it reads, and checks.
func (m *matcher) runR2() error {
	fromE1 := m.k1.Len() <= m.k2.Len()
	matched, beta, other := m.matched1, m.g.Beta1, m.k2.Len()
	if !fromE1 {
		matched, beta, other = m.matched2, m.g.Beta2, m.k1.Len()
	}
	for i := range matched {
		row := beta.Row(i)
		if matched[i] || len(row) == 0 {
			continue
		}
		if err := graph.CheckEdges(row[:1], other); err != nil {
			return err
		}
		if row[0].Weight() < 1 {
			continue
		}
		p := eval.Pair{E1: kb.EntityID(i), E2: row[0].To}
		if !fromE1 {
			p = eval.Pair{E1: row[0].To, E2: kb.EntityID(i)}
		}
		m.commit(p, RuleValue)
	}
	return nil
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
// RunOnDemandCtx drives it: pick2All first, then pick1At over E1.

// pick is a candidate of one node under R3 with its fused score: an entry
// of the aggregation board.
type pick struct {
	to    kb.EntityID
	score float64
}

// aggBoard is the R3 worker scratch: a bounded sparse scoreboard over one
// node's fused candidates. Unlike β/γ — where an entity can touch
// unboundedly many candidates and the graph package uses dense per-worker
// arrays — R3's inputs are candidate rows already pruned to at most K each,
// so a linear list of ≤ 2K entries gives the same zero-allocation
// accumulation at O(K) memory per worker instead of O(|KB|). seen is a
// 64-bit membership mask over the listed candidates, one bit per hash
// bucket: a candidate whose bit is clear is new without a scan.
type aggBoard struct {
	cands []pick // the candidates touched so far with their fused scores
	seen  uint64
}

func newAggBoard() *aggBoard { return &aggBoard{cands: make([]pick, 0, 32)} }

// add accumulates a rank contribution onto a candidate: appended when its
// mask bit is clear, else found by a scan over the live entries.
func (b *aggBoard) add(to kb.EntityID, w float64) {
	bit := uint64(1) << (uint32(to) * 0x9e3779b1 >> 26)
	if b.seen&bit != 0 {
		for i := range b.cands {
			if b.cands[i].to == to {
				b.cands[i].score += w
				return
			}
		}
	}
	b.seen |= bit
	b.cands = append(b.cands, pick{to, w})
}

// accumulate fuses the two ranked candidate lists of one node onto the
// board: each candidate scores θ·rank/|valCands| from the value list plus
// (1−θ)·rank/|ngbCands| from the neighbor list, the first candidate of a
// list ranking |list|. Every candidate's additions run value list first,
// each list in order, so the fused floats do not depend on the caller.
func (b *aggBoard) accumulate(valCands, ngbCands []graph.Edge, theta float64) {
	n := len(valCands)
	for idx, e := range valCands {
		rank := n - idx // first candidate gets rank n → score n/n
		b.add(e.To, theta*float64(rank)/float64(n))
	}
	n = len(ngbCands)
	for idx, e := range ngbCands {
		rank := n - idx
		b.add(e.To, (1-theta)*float64(rank)/float64(n))
	}
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
		if c.score > bestScore || (c.score == bestScore && c.to < best) {
			best, bestScore = c.to, c.score
		}
	}
	return best, bestScore
}

func (b *aggBoard) reset() { b.cands, b.seen = b.cands[:0], 0 }

// pick1At computes the R3 pick of E1 node i from its γ candidate row,
// accumulating on the caller's board; NoEntity unless i is an R3 candidate (cand, see demand). It checks
// the β row it fuses; the γ row was checked as it was built. A commit needs
// the pick alone, not its score.
func (m *matcher) pick1At(sb *aggBoard, cand []bool, i int, ngb []graph.Edge) (kb.EntityID, error) {
	if !cand[i] {
		return kb.NoEntity, nil
	}
	val := m.g.Beta1.Row(i)
	if err := graph.CheckEdges(val, m.k2.Len()); err != nil {
		return kb.NoEntity, err
	}
	to, _ := m.aggregate(sb, val, ngb)
	return to, nil
}

// pick2All computes the R3 picks of every E2 node against the post-R2
// matched state — the snapshot taken before any R3 commit. It checks the β
// and γ rows it fuses.
func (m *matcher) pick2All(ctx context.Context) ([]kb.EntityID, error) {
	return parallel.MapLocalCtx(ctx, m.eng, m.k2.Len(), newAggBoard,
		func(sb *aggBoard, j int) (kb.EntityID, error) {
			if m.matched2[j] {
				return kb.NoEntity, nil
			}
			val, ngb := m.g.Beta2.Row(j), m.g.Gamma2.Row(j)
			if !m.cfg.UseNeighbors {
				ngb = nil
			}
			if err := cmp.Or(graph.CheckEdges(val, m.k1.Len()), graph.CheckEdges(ngb, m.k1.Len())); err != nil {
				return kb.NoEntity, err
			}
			to, _ := m.aggregate(sb, val, ngb)
			return to, nil
		})
}

// hasEdge1NoGamma reports whether the directed edge of the pair p from E1
// to E2 survived pruning under α or β evidence — with the γ₁ row, the E1
// leg of R4's G.E membership test. It checks the rows as it scans them: the
// β row only when the α row does not hold the edge.
func (m *matcher) hasEdge1NoGamma(p eval.Pair) (bool, error) {
	n2 := m.k2.Len()
	if has, err := graph.ContainsID(m.g.Alpha1.Row(int(p.E1)), p.E2, n2); has || err != nil {
		return has, err
	}
	return graph.ContainsEdge(m.g.Beta1.Row(int(p.E1)), p.E2, n2)
}

// reciprocal is rule R4 for the match at idx (lines 24–26): both directed
// edges exist in the pruned graph, E1→E2 under α, β or γ — the γ₁ row of
// the E1 entity in gamma1, built as it was walked — and E2→E1 under any
// evidence (graph.Graph.HasEdge2). The α/β verdict of an R1 or R2 match is
// demand's; it checks the α, β and γ₂ entries it scans.
func (m *matcher) reciprocal(idx int, gamma1 graph.Rows[graph.Edge]) (bool, error) {
	p := m.matches[idx].Pair
	has1, err := idx < len(m.has1) && m.has1[idx], error(nil)
	if idx >= len(m.has1) { // an R3 match: demand did not scan it
		has1, err = m.hasEdge1NoGamma(p)
	}
	if err != nil || !(has1 || graph.EdgeListContains(gamma1.Row(int(p.E1)), p.E2)) {
		return false, err
	}
	return m.g.HasEdge2(p.E2, p.E1, m.k1.Len())
}

// aggregate fuses the two ranked candidate lists of one node on the given
// board (accumulate) and returns the top candidate with its aggregate score
// (NoEntity if the node has no candidates). Ties break toward the lower
// entity ID; the board is reset before returning.
func (m *matcher) aggregate(sb *aggBoard, valCands, ngbCands []graph.Edge) (kb.EntityID, float64) {
	if !m.cfg.UseNeighbors {
		ngbCands = nil
	}
	sb.accumulate(valCands, ngbCands, m.cfg.Theta)
	best, bestScore := sb.best()
	sb.reset()
	return best, bestScore
}
