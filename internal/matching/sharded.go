package matching

import (
	"context"
	"fmt"

	"minoaner/internal/eval"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// GammaFor supplies the E1-side γ candidate rows of one contiguous entity
// span on demand (graph.Graph.Gamma1Span behind a timing/accounting wrapper
// in the core pipeline). The returned set must hold s.Len() rows, row i
// describing entity s.Lo+i. need flags, per E1 entity, the rows Algorithm 2
// will read (see RunShardedCtx); a row whose flag is false may come back
// empty. RunShardedCtx calls it exactly once per span, in span order, and
// drops the rows before requesting the next span — that single-span
// lifetime is what bounds the matcher's memory.
type GammaFor func(ctx context.Context, s parallel.Span, need []bool) (graph.Rows[graph.Edge], error)

// RunShardedCtx executes Algorithm 2 — the one matcher loop — over a graph
// whose E1-side γ rows are not held: the rows of each E1 span are pulled from
// gammaFor when rule R3 reaches the span and released right after the span's
// rank-aggregation picks and R4 reciprocity evidence have been extracted.
// Candidate evaluation in R2/R3 is skewed per entity, so those passes use
// the dynamic chunked scheduler; cancellation is observed between rules and
// between chunks within a rule.
//
// shards must partition [0, k1.Len()) into contiguous ascending spans. The
// output is byte-identical for EVERY span plan: R1 and R2 are global passes;
// R3 takes its E2-side pick snapshot before any R3 commit and then
// processes E1 entities in ascending order (spans are ascending, commits
// inside a span are ascending); R4 — both directed edges must exist in the
// pruned graph (lines 24–26) — is evaluated with the γ membership bit
// captured while the span's rows were live.
//
// Only the γ rows the rules read are asked for: the demand is fixed after
// R2 (rowsNeeded) and handed to gammaFor with every span.
func RunShardedCtx(ctx context.Context, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config, shards []parallel.Span, gammaFor GammaFor) (*Result, error) {
	m := &matcher{
		g: g, k1: k1, k2: k2, cfg: cfg, eng: e.Chunked(),
		matched1: make([]bool, k1.Len()),
		matched2: make([]bool, k2.Len()),
	}
	if cfg.EnableR1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.runR1()
	}
	if cfg.EnableR2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.runR2()
	}
	var pick2 []pick
	if cfg.EnableR3 {
		var err error
		if pick2, err = m.pick2All(ctx); err != nil {
			return nil, err
		}
	}
	// gammaHas[idx] records, for match idx, whether the directed γ edge
	// E1→E2 exists — evaluated while the γ rows of the match's shard are
	// live, standing in for the Gamma1 leg of HasDirectedEdge1. A match
	// whose E1 row is not needed keeps false: R4 does not look at it.
	var gammaHas []bool
	need := m.rowsNeeded()
	for _, s := range shards {
		rows, err := gammaFor(ctx, s, need)
		if err != nil {
			return nil, err
		}
		if rows.Len() != s.Len() {
			return nil, fmt.Errorf("matching: gammaFor returned %d rows for span [%d,%d)", rows.Len(), s.Lo, s.Hi)
		}
		if cfg.EnableR3 {
			picks, err := parallel.MapLocalCtx(ctx, m.eng, s.Len(), newAggBoard,
				func(sb *aggBoard, i int) (pick, error) {
					return m.pick1At(sb, s.Lo+i, rows.Row(i)), nil
				})
			if err != nil {
				return nil, err
			}
			for i, p := range picks {
				if p.to == kb.NoEntity {
					continue
				}
				if back := pick2[p.to]; back.to == kb.EntityID(s.Lo+i) {
					m.commit(eval.Pair{E1: kb.EntityID(s.Lo + i), E2: p.to}, RuleRank)
				}
			}
		}
		if cfg.EnableR4 {
			// Every match whose E1 endpoint lies in this shard — including
			// R1/R2 matches committed before the shard loop and R3 matches
			// committed just above — gets its γ membership bit now.
			for len(gammaHas) < len(m.matches) {
				gammaHas = append(gammaHas, false)
			}
			for idx := range m.matches {
				p := m.matches[idx].Pair
				if int(p.E1) >= s.Lo && int(p.E1) < s.Hi && need[p.E1] {
					gammaHas[idx] = graph.EdgeListContains(rows.Row(int(p.E1)-s.Lo), p.E2)
				}
			}
		}
	}
	res := &Result{}
	if cfg.EnableR4 {
		for len(gammaHas) < len(m.matches) {
			gammaHas = append(gammaHas, false)
		}
		kept := m.matches[:0]
		for idx, match := range m.matches {
			p := match.Pair
			if (m.g.HasDirectedEdge1NoGamma(p.E1, p.E2) || gammaHas[idx]) && m.g.HasDirectedEdge2(p.E2, p.E1) {
				kept = append(kept, match)
			} else {
				res.RemovedByR4++
			}
		}
		m.matches = kept
	}
	sortMatches(m.matches)
	res.Matches = m.matches
	return res, nil
}

// rowsNeeded returns, per E1 entity, whether Algorithm 2 reads its γ row
// after R1 and R2: R3 aggregates the row of every entity still unmatched,
// and R4 looks for a match's E1→E2 edge in it unless the match's α or β
// edges already hold it. It is taken once, before R3 commits anything, so
// the workers that fill a span's rows read a value nothing writes.
func (m *matcher) rowsNeeded() []bool {
	need := make([]bool, len(m.matched1))
	if m.cfg.EnableR3 {
		for i, matched := range m.matched1 {
			need[i] = !matched
		}
	}
	if m.cfg.EnableR4 {
		for _, match := range m.matches {
			p := match.Pair
			if !m.g.HasDirectedEdge1NoGamma(p.E1, p.E2) {
				need[p.E1] = true
			}
		}
	}
	return need
}
