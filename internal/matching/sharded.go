package matching

import (
	"context"
	"fmt"
	"slices"

	"minoaner/internal/eval"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// GammaFor supplies the E1-side γ candidate rows of one contiguous entity
// span on demand (graph.Graph.Gamma1Span behind a timing wrapper in the core
// pipeline). The returned set must hold s.Len() rows, row i describing
// entity s.Lo+i. need flags, per E1 entity, the rows Algorithm 2 can read
// (see RunShardedCtx); a row whose flag is false may come back empty.
// RunShardedCtx calls it exactly once per span, in span order, and is done
// with a span's rows when it requests the next — that single-span lifetime
// is what bounds the matcher's memory, and what lets the supplier build the
// next span in the arrays (and on the scoreboards) of the last. An error,
// such as a damaged input the rows follow, ends the run.
type GammaFor func(ctx context.Context, s parallel.Span, need []bool) (graph.Rows[graph.Edge], error)

// RunShardedCtx executes Algorithm 2 — the one matcher loop — over a graph
// whose E1-side γ rows are not held: the rows of each E1 span are pulled from
// gammaFor when rule R3 reaches the span and are done with once the span's
// rank-aggregation picks and R4 reciprocity evidence have been extracted;
// the next span may be built over them.
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
// Only the γ rows the rules can read are asked for: the demand is fixed
// after R2 and the E2-side R3 picks (demand) and handed to gammaFor with
// every span. R3 can commit an E1 entity only if some E2 entity picks it,
// so no other E1 entity is aggregated, and no other row is built for R3.
//
// g may come from a file with only its shape checked (graph.CheckShape):
// every rule checks the α, β and γ₂ entries it reads before it uses them
// (graph.CheckIDs, CheckEdges, ContainsID, ContainsEdge), so a damaged
// entry gives graph.ErrOutOfRange or graph.ErrBadWeight before any result
// that reads it, and a run that does not read it is not affected.
func RunShardedCtx(ctx context.Context, e *parallel.Engine, g *graph.Graph, k1, k2 *kb.KB, cfg Config, shards []parallel.Span, gammaFor GammaFor) (*Result, error) {
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
	// gammaHas[idx] records, for match idx, whether the directed γ edge
	// E1→E2 exists — evaluated while the γ rows of the match's shard are
	// live, standing in for the γ₁ leg of R4's E1→E2 test. A match
	// whose E1 row is not needed keeps false: R4 does not look at it.
	var (
		gammaHas []bool
		picks    []kb.EntityID // one span's E1-side picks, reused for the next
	)
	need, cand, err := m.demand(pick2)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		rows, err := gammaFor(ctx, s, need)
		if err != nil {
			return nil, err
		}
		if rows.Len() != s.Len() {
			return nil, fmt.Errorf("matching: gammaFor returned %d rows for span [%d,%d)", rows.Len(), s.Lo, s.Hi)
		}
		if cfg.EnableR3 {
			picks = slices.Grow(picks[:0], s.Len())[:s.Len()]
			err := parallel.ForLocalCtx(ctx, m.eng, s.Len(), newAggBoard,
				func(sb *aggBoard, i int) (err error) {
					picks[i], err = m.pick1At(sb, cand, s.Lo+i, rows.Row(i))
					return err
				})
			if err != nil {
				return nil, err
			}
			for i, to := range picks {
				if to != kb.NoEntity && pick2[to] == kb.EntityID(s.Lo+i) {
					m.commit(eval.Pair{E1: kb.EntityID(s.Lo + i), E2: to}, RuleRank)
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
		// Each test reads the graph only, so they run in parallel; the
		// filter keeps the matches' order.
		keep, err := parallel.MapCtx(ctx, m.eng, len(m.matches), func(idx int) (bool, error) {
			return m.reciprocal(m.matches[idx].Pair, gammaHas[idx])
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
// once, before R3 commits anything, so the workers that fill a span's rows
// read a value nothing writes. It checks the α and β rows it scans.
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
		for _, match := range m.matches {
			p := match.Pair
			has, err := m.hasEdge1NoGamma(p)
			if err != nil {
				return nil, nil, err
			}
			if !has {
				need[p.E1] = true
			}
		}
	}
	return need, cand, nil
}
