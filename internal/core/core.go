// Package core wires the MinoanER stages into the end-to-end, non-iterative,
// massively parallel pipeline of the paper (Figure 4): statistics extraction
// (names, relation importance, top neighbors), composite blocking (name ∥
// token, with Block Purging), disjunctive blocking graph construction
// (Algorithm 1) and the four-rule matching process (Algorithm 2).
//
// The pipeline is configured by the paper's four parameters — k (name
// attributes), K (candidates per node), N (top relations) and θ (rank
// aggregation trade-off) — plus the worker count of the parallel engine.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/eval"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
)

// Config holds the MinoanER parameters. The defaults reproduce the paper's
// suggested global configuration (k, K, N, θ) = (2, 15, 3, 0.6) (§6.1).
type Config struct {
	// NameK (paper: k) is the number of top name attributes per KB.
	NameK int
	// TopK (paper: K) is the number of candidates kept per node per weight.
	TopK int
	// RelN (paper: N) is the number of most important relations per entity.
	RelN int
	// Theta (paper: θ) trades value-based against neighbor-based ranks in R3.
	Theta float64
	// MaxBlockFraction is the Block Purging cap (§3.3): token blocks whose
	// comparison count exceeds this fraction of |E1|·|E2| correspond to
	// highly frequent, stop-word-like tokens and are removed. The paper
	// reports that purging leaves two orders of magnitude fewer comparisons
	// than brute force without hurting recall. Zero selects the paper's
	// default (0.0005), like the other parameters; set NoBlockPurging (or
	// any negative value) to disable purging explicitly.
	MaxBlockFraction float64
	// Workers sets the parallel engine size; 0 uses all cores. It changes
	// no result, and a snapshot does not store it.
	Workers int `json:"-"`
	// Rules toggles individual matching rules and neighbor evidence; the
	// zero value means "all rules enabled" (see normalize).
	Rules *matching.Config
}

// NoBlockPurging is the MaxBlockFraction sentinel that disables Block
// Purging explicitly. (A zero MaxBlockFraction means "use the default",
// consistent with every other Config field.)
const NoBlockPurging = -1.0

// DefaultConfig returns the paper's global configuration.
func DefaultConfig() Config {
	return Config{
		NameK:            2,
		TopK:             15,
		RelN:             3,
		Theta:            0.6,
		MaxBlockFraction: 0.0005,
	}
}

// normalize fills zero fields with defaults and validates ranges.
func (c Config) normalize() (Config, error) {
	d := DefaultConfig()
	if c.NameK == 0 {
		c.NameK = d.NameK
	}
	if c.TopK == 0 {
		c.TopK = d.TopK
	}
	if c.RelN == 0 {
		c.RelN = d.RelN
	}
	if c.Theta == 0 {
		c.Theta = d.Theta
	}
	if c.MaxBlockFraction == 0 {
		c.MaxBlockFraction = d.MaxBlockFraction
	}
	if c.MaxBlockFraction < 0 {
		c.MaxBlockFraction = 0 // explicitly disabled via NoBlockPurging
	}
	if c.NameK < 0 || c.TopK <= 0 || c.RelN < 0 {
		return c, fmt.Errorf("core: invalid config: k=%d K=%d N=%d must be non-negative (K positive)", c.NameK, c.TopK, c.RelN)
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		return c, fmt.Errorf("core: invalid config: θ=%v must lie in (0,1)", c.Theta)
	}
	if c.Rules == nil {
		mc := matching.DefaultConfig()
		c.Rules = &mc
	}
	return c, nil
}

// rules returns the matching configuration of a normalized config: its
// Rules with its Theta.
func (c Config) rules() matching.Config {
	mc := *c.Rules
	mc.Theta = c.Theta
	return mc
}

// Timings records wall-clock durations per pipeline stage; the matching
// share of total time is reported in §6.2. The substrate build overlaps its
// independent chains when Workers > 1, so Statistics (the statistics chain)
// and Blocking (name plus token blocking) are CPU-work sums, while Total
// reflects the real, shorter elapsed wall time. Graph is the one-time
// construction of the substrate's graph — whichever call paid for it, zero
// for a graph installed from a snapshot — plus this output's own E1-side γ
// rows, produced on demand during matching.
type Timings struct {
	Statistics time.Duration
	Blocking   time.Duration
	Graph      time.Duration
	Matching   time.Duration
	Total      time.Duration
}

// Output is the result of one pipeline run.
type Output struct {
	// Matches holds the detected correspondences with rule provenance.
	Matches []matching.Match
	// RemovedByR4 counts reciprocity-filtered matches.
	RemovedByR4 int
	// NameBlocks is the name block collection (with the substrate's
	// TokenBlocks, the source of the Table 2 statistics).
	NameBlocks *blocking.Collection
	// PurgedBlocks is the number of token blocks removed by Block Purging;
	// PurgeThreshold the applied per-block comparison cap (0 = none).
	PurgedBlocks   int
	PurgeThreshold int64
	// GraphEdges is the number of directed edges retained after pruning.
	GraphEdges int
	// NameAttrs1/NameAttrs2 are the discovered name attributes per KB.
	NameAttrs1, NameAttrs2 []string
	// Timings holds per-stage durations.
	Timings Timings
}

// Pairs returns the bare match pairs.
func (o *Output) Pairs() []eval.Pair {
	out := make([]eval.Pair, len(o.Matches))
	for i, m := range o.Matches {
		out[i] = m.Pair
	}
	return out
}

// ResolveContext runs the full MinoanER pipeline on two clean KBs under the
// given context: it builds the substrate (stages 1–2) and resolves with it
// (stages 3–4) in one composition — byte-identical to the historical
// monolithic pipeline, as the pinned-digest tests prove. Cancellation is
// cooperative: every data-parallel pass observes ctx between chunks, so the
// pipeline aborts promptly (returning ctx.Err()) when the context is
// cancelled or its deadline expires — the early-termination primitive that
// progressive/any-time ER and request timeouts in a serving deployment both
// need.
func ResolveContext(ctx context.Context, k1, k2 *kb.KB, cfg Config) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := parallel.New(cfg.Workers)
	sub, err := buildSubstrate(ctx, eng, k1, k2, cfg)
	if err != nil {
		return nil, err
	}
	return resolveWith(ctx, eng, sub, cfg, 1)
}

// ResolveWith runs resolution (stages 3–4) over a prebuilt substrate: it
// matches over the substrate's one disjunctive blocking graph — built on
// first use, installed as-is on a substrate opened from a snapshot, and
// shared with QueryEntity, PrewarmQueries and the snapshot writer — and
// computes only the E1-side γ rows and the matching itself. Only the
// matching-side parameters of cfg apply — TopK, Theta, Rules and Workers;
// the substrate's baked-in build parameters (NameK, RelN, MaxBlockFraction)
// are used as frozen. A TopK other than the substrate's builds a private
// graph for this call and drops it afterwards. Calling BuildSubstrate then
// ResolveWith with one Config is byte-identical to ResolveContext with that
// Config; the substrate's graph is never mutated, so
// several ResolveWith calls (e.g. rule ablations over one substrate) may run
// concurrently.
func ResolveWith(ctx context.Context, sub *Substrate, cfg Config) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := parallel.New(cfg.Workers)
	return resolveWith(ctx, eng, sub, cfg, 1)
}

// gammaSpanRows bounds how many E1 entities' γ rows a resolution holds at a
// time (2.9 MB at K = 15 if every row were needed; a span's array holds
// the needed rows only).
const gammaSpanRows = 1 << 14

// shardSpans partitions [0, n) into at most p contiguous ascending spans of
// near-equal size (never empty; nil for n == 0).
func shardSpans(n, p int) []parallel.Span {
	return parallel.New(p).Partitions(n)
}

// resolveWith is the internal resolution over a normalized Config. It
// builds and matches E1's γ rows in contiguous spans of at most
// gammaSpanRows entities, and in at least minSpans of them: only tests ask
// for more than one, to show that the output does not depend on the span
// plan. Output.Timings carries the wall clock of everything the output
// rests on: the substrate's stages, the graph's one-time construction —
// whichever call paid for it — and this call's own γ rows and matching;
// Total is their sum, the historical whole-pipeline meaning.
func resolveWith(ctx context.Context, eng *parallel.Engine, sub *Substrate, cfg Config, minSpans int) (*Output, error) {
	// The output hands the name blocks out whole, so a substrate from parts
	// checks their members first, and its matches name entities whose
	// URIs every caller prints, so it checks both URI tables too.
	if err := errors.Join(sub.nameBlockCheck.Run(), sub.k1.CheckURIs(), sub.k2.CheckURIs()); err != nil {
		return nil, err
	}
	out := &Output{
		NameBlocks:     sub.NameBlocks(),
		PurgedBlocks:   sub.purgedBlocks,
		PurgeThreshold: sub.purgeThreshold,
		NameAttrs1:     sub.nameAttrs1,
		NameAttrs2:     sub.nameAttrs2,
		Timings:        sub.timings,
	}
	mc := cfg.rules()

	// Stage 3 — disjunctive blocking graph (Algorithm 1).
	pg, err := sub.graphFor(ctx, eng, cfg.TopK)
	if err != nil {
		return nil, err
	}

	// Stage 4 — non-iterative matching (Algorithm 2). The γ rows of each E1
	// span are built on demand, and only those R3 and R4 can read, each span
	// in the arrays and on the scoreboards of the one before; the time spent
	// on them is accounted to the graph stage. GraphEdges counts the
	// whole graph from the count its build took, though its E1-side γ rows
	// never exist at once and most are never built.
	n1 := sub.k1.Len()
	spans := shardSpans(n1, max(minSpans, (n1+gammaSpanRows-1)/gammaSpanRows))
	t0 := time.Now()
	var (
		gammaTime time.Duration
		rows      graph.Rows[graph.Edge] // one span's, reused for the next
	)
	gammaFor := func(gctx context.Context, s parallel.Span, need []bool) (_ graph.Rows[graph.Edge], err error) {
		gt := time.Now()
		rows, err = pg.g.Gamma1Span(gctx, eng, s, need, rows)
		gammaTime += time.Since(gt)
		return rows, err
	}
	res, err := matching.RunShardedCtx(ctx, eng, pg.g, sub.k1, sub.k2, mc, spans, gammaFor)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	out.Matches = res.Matches
	out.RemovedByR4 = res.RemovedByR4
	out.GraphEdges = pg.g.Edges()
	out.Timings.Graph = pg.wall + gammaTime
	out.Timings.Matching = elapsed - gammaTime
	out.Timings.Total = sub.buildWall + pg.wall + elapsed
	return out, nil
}
