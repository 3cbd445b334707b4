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
	// Workers sets the parallel engine size; 0 uses all cores.
	Workers int
	// ShardCount (P) splits E1 into P contiguous entity shards and runs the
	// per-shard stages (top-neighbor extraction, E1-side γ rows, rank
	// aggregation) one shard at a time with bounded transient memory —
	// see ResolveSharded. 0 or 1 leaves the span size to the pipeline unless
	// MaxShardBytes implies a larger count. Output is byte-identical for
	// every value.
	ShardCount int
	// MaxShardBytes caps the estimated size of the dominant per-shard
	// structure (the shard's γ candidate rows); when ShardCount is 0 the
	// shard count is derived from it. 0 means no byte-based cap.
	MaxShardBytes int64
	// OmitTokenBlocks skips materializing the historical token-block
	// collection in Output.TokenBlocks (nil instead). The collection exists
	// only for Table-2 statistics — graph construction walks the columnar
	// TokenIndex directly — so omitting it changes no match, provenance or
	// edge count; long-lived substrates serving queries avoid pinning it.
	OmitTokenBlocks bool
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
	if c.ShardCount < 0 || c.MaxShardBytes < 0 {
		return c, fmt.Errorf("core: invalid config: ShardCount=%d MaxShardBytes=%d must be non-negative", c.ShardCount, c.MaxShardBytes)
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
// share of total time is reported in §6.2. The statistics stage is further
// broken into its three sub-stages (each one barrier of Figure 4's left
// column). No caller reads the sub-stage clocks; they stay because the
// snapshot's meta section serializes Timings as a whole.
type Timings struct {
	Statistics time.Duration
	// StatsAttributes covers attribute-importance / name discovery for both
	// KBs; StatsRelations the relation-importance pass; StatsTopNeighbors
	// the per-entity top-neighbor extraction.
	StatsAttributes   time.Duration
	StatsRelations    time.Duration
	StatsTopNeighbors time.Duration
	// Blocking is the sum of its two sub-clocks: BlockingName covers the
	// columnar name index build, BlockingToken the token index build plus
	// Block Purging. The substrate build overlaps independent sub-stages
	// when Workers > 1, so Statistics and Blocking are CPU-work sums (their
	// sub-stages' own clocks), while Total reflects the real, shorter
	// elapsed wall time.
	Blocking      time.Duration
	BlockingName  time.Duration
	BlockingToken time.Duration
	Graph         time.Duration
	// GraphBeta covers name evidence plus both β directions (one concurrent
	// barrier); GraphGamma the adjacency merges, in-neighbor reversals and
	// both γ directions, including the E1 γ rows produced on demand during
	// matching. The graph is built once per substrate: every Output matched
	// over it reports that one construction (zero for a graph installed from
	// a snapshot) plus its own γ rows.
	GraphBeta  time.Duration
	GraphGamma time.Duration
	Matching   time.Duration
	Total      time.Duration
}

// Output is the result of one pipeline run.
type Output struct {
	// Matches holds the detected correspondences with rule provenance.
	Matches []matching.Match
	// RemovedByR4 counts reciprocity-filtered matches.
	RemovedByR4 int
	// NameBlocks / TokenBlocks are the block collections after purging
	// (Table 2 statistics are computed from them).
	NameBlocks, TokenBlocks *blocking.Collection
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

// Resolve runs the full MinoanER pipeline on two clean KBs.
func Resolve(k1, k2 *kb.KB, cfg Config) (*Output, error) {
	return ResolveContext(context.Background(), k1, k2, cfg)
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
//
// cfg's sharding fields (ShardCount, MaxShardBytes) only bound how much of
// E1 the per-shard stages hold at a time — see ResolveSharded; output is
// identical for every value.
func ResolveContext(ctx context.Context, k1, k2 *kb.KB, cfg Config) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := parallel.New(cfg.Workers)
	p := cfg.effectiveShards(k1.Len())
	sub, err := buildSubstrate(ctx, eng, k1, k2, cfg, p)
	if err != nil {
		return nil, err
	}
	return resolveWith(ctx, eng, sub, cfg, p)
}

// ResolveWith runs resolution (stages 3–4) over a prebuilt substrate: it
// matches over the substrate's one disjunctive blocking graph — built on
// first use, installed as-is on a substrate opened from a snapshot, and
// shared with QueryEntity, PrewarmQueries and the snapshot writer — and
// computes only the E1-side γ rows and the matching itself. Only the
// matching-side parameters of cfg apply — TopK, Theta, Rules, Workers and
// the sharding fields; the substrate's baked-in build parameters (NameK,
// RelN, MaxBlockFraction) are used as frozen. A TopK other than the
// substrate's builds a private graph for this call and drops it afterwards.
// Calling BuildSubstrate then ResolveWith with one Config is byte-identical
// to Resolve with that Config; the substrate's graph is never mutated, so
// several ResolveWith calls (e.g. rule ablations over one substrate) may run
// concurrently.
func ResolveWith(ctx context.Context, sub *Substrate, cfg Config) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := parallel.New(cfg.Workers)
	return resolveWith(ctx, eng, sub, cfg, cfg.effectiveShards(sub.k1.Len()))
}

// gammaSpanRows bounds how many E1 entities' γ rows a resolution holds at a
// time (about 4 MB at K = 15); a sharded run uses its shards when they are
// smaller.
const gammaSpanRows = 1 << 14

// resolveWith is the internal resolution over a normalized Config and
// resolved shard count. Output.Timings carries the wall clock of everything
// the output rests on: the substrate's stages, the graph's one-time
// construction — whichever call paid for it — and this call's own γ rows
// and matching; Total is their sum, the historical whole-pipeline meaning.
func resolveWith(ctx context.Context, eng *parallel.Engine, sub *Substrate, cfg Config, p int) (*Output, error) {
	// The output hands the block collections out whole, so a substrate from
	// parts checks their members first, and its matches name entities whose
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
	if !cfg.OmitTokenBlocks {
		var err error
		if out.TokenBlocks, err = sub.tokenBlocks(ctx); err != nil {
			return nil, err
		}
	}
	mc := cfg.rules()

	// Stage 3 — disjunctive blocking graph (Algorithm 1).
	pg, err := sub.graphFor(ctx, eng, cfg.TopK)
	if err != nil {
		return nil, err
	}

	// Stage 4 — non-iterative matching (Algorithm 2). The γ rows of each E1
	// span are built on demand, and only those R3 and R4 will read; the time
	// spent on them is accounted to the graph stage. Gamma1Span counts the
	// edges of every row, built or not, so GraphEdges counts the whole graph,
	// though its E1-side γ rows never exist at once and some are never built.
	n1 := sub.k1.Len()
	spans := shardSpans(n1, max(p, (n1+gammaSpanRows-1)/gammaSpanRows))
	t0 := time.Now()
	var (
		gammaTime   time.Duration
		gamma1Edges int
		rows        graph.Rows[graph.Edge] // one span's, reused for the next
	)
	gammaFor := func(gctx context.Context, s parallel.Span, need []bool) (_ graph.Rows[graph.Edge], err error) {
		gt := time.Now()
		var edges int
		rows, edges, err = pg.g.Gamma1Span(gctx, eng, s, need, rows)
		gammaTime += time.Since(gt)
		gamma1Edges += edges
		return rows, err
	}
	res, err := matching.RunShardedCtx(ctx, eng, pg.g, sub.k1, sub.k2, mc, spans, gammaFor)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	out.Matches = res.Matches
	out.RemovedByR4 = res.RemovedByR4
	out.GraphEdges = pg.g.Edges() + gamma1Edges
	out.Timings.Graph = pg.wall + gammaTime
	out.Timings.GraphBeta = pg.tm.Beta
	out.Timings.GraphGamma = pg.tm.Gamma + gammaTime
	out.Timings.Matching = elapsed - gammaTime
	out.Timings.Total = sub.buildWall + pg.wall + elapsed
	return out, nil
}
