// The build-once substrate: every expensive pair-level structure the
// pipeline derives from a KB pair BEFORE any resolution decision is made —
// discovered name attributes, name lookups, dense relation ranks,
// top-neighbor rows, the name table and the purged columnar TokenIndex — packed
// into one immutable value that can be built once and consumed many times:
// by a full batch resolution (ResolveWith), by another resolution with
// different matching rules, or by per-entity queries (QueryEntity). This is
// the seam ROADMAP's resolution-as-a-service arc needs: the substrate is the
// state a server keeps warm, and everything downstream of it is cheap.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// Substrate is the reusable pair-level state of one (K1, K2, Config) triple:
// stages 1–2 of the pipeline (statistics and composite blocking) frozen into
// an immutable value. It is safe for concurrent use — nothing in it mutates
// after BuildSubstrate returns except lazily built, internally synchronized
// caches (the token index of a substrate from parts, the materialized
// token-block collection, the pair's disjunctive blocking graph and the
// per-entity query state).
//
// Build-time parameters (NameK, RelN, MaxBlockFraction) are baked in:
// ResolveWith and QueryEntity consume the substrate as-is and only
// matching-side parameters (TopK, Theta, Rules) of their own Config apply.
type Substrate struct {
	k1, k2 *kb.KB
	cfg    Config // normalized build-time config

	nameAttrs1, nameAttrs2 []string
	names1, names2         *stats.NameLookup
	ranks1, ranks2         []int32
	top1, top2             graph.Rows[kb.EntityID]

	// names is the name table, the source of the name blocks and of the
	// query path's α probe.
	names          NameTable
	purgedBlocks   int
	purgeThreshold int64

	// tokenIx is the purged token index: set by the build, derived from the
	// KBs by the first reader of a substrate from parts (TokenIndex). tokenMu
	// serializes the derive, which a cancelled context leaves to be retried;
	// tokenErr is the verdict of a derive that read a damaged dictionary
	// string or disagreed with the stored purge, and tokenDerives counts
	// derives, for the tests.
	tokenIx      atomic.Pointer[blocking.TokenIndex]
	tokenMu      sync.Mutex
	tokenErr     error
	tokenDerives atomic.Int32

	// timings carries the stage-1/2 wall clock into every Output produced
	// from this substrate; buildWall is the full BuildSubstrate duration,
	// added to ResolveWith's own elapsed time so Output.Timings.Total keeps
	// the historical "whole pipeline" meaning. Both stay zero on a substrate
	// from parts: a snapshot holds the pair, not how long its build took.
	timings   Timings
	buildWall time.Duration

	// blocksOnce guards the lazy materialization of the token-block
	// collection (a long-lived substrate serving queries never pays for the
	// historical block output unless someone asks).
	blocksOnce sync.Once
	blocks     *blocking.Collection

	// graph is the pair's disjunctive blocking graph at the substrate's TopK,
	// built on first use or installed from a snapshot, and read by batch
	// resolution, the query path and the snapshot writer alike. lazyMu
	// serializes its build and that of the query state on top of it
	// (singleflight — unlike sync.Once a failed build can be retried, e.g.
	// after a cancelled context); graphBuilds counts builds, for the tests.
	graph       atomic.Pointer[pairGraph]
	query       atomic.Pointer[queryState]
	lazyMu      sync.Mutex
	graphBuilds atomic.Int32

	// The deferred checks of a substrate assembled from parts, which may
	// have come from a file and was shape-checked only: the entity IDs of
	// the top-neighbor rows, and the name table's keys, their order and its
	// members, each run once, by the first reader that walks them whole (or
	// a name lookup that misses or meets damage), with the verdict kept. Nil
	// for a built substrate. The installed graph's check is the query
	// state's (queryState).
	top1Check, top2Check, nameCheck *kb.Deferred
}

// pairGraph is a built graph with the clock of its construction (zero for
// one installed from a snapshot).
type pairGraph struct {
	g    *graph.Graph
	wall time.Duration
}

// buildGraph runs Algorithm 1 over the substrate with candidate rows pruned
// to k.
func (s *Substrate) buildGraph(ctx context.Context, eng *parallel.Engine, k int) (*pairGraph, error) {
	ix, err := s.tokenIndex(ctx, eng)
	if err != nil {
		return nil, err
	}
	nameBlocks, err := s.NameBlocks()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, _, err := graph.BuildSharedCtx(ctx, eng, graph.Input{
		K1: s.k1, K2: s.k2,
		NameBlocks: nameBlocks,
		TokenIndex: ix,
		K:          k,
	}, s.top1, s.top2)
	if err != nil {
		return nil, err
	}
	return &pairGraph{g: g, wall: time.Since(t0)}, nil
}

// graphFor returns the graph to match over at row bound k: the substrate's
// shared graph — built by the first caller that needs it, under that
// caller's context — or, for a k other than the substrate's TopK, a private
// one the substrate does not keep.
func (s *Substrate) graphFor(ctx context.Context, eng *parallel.Engine, k int) (*pairGraph, error) {
	if pg := s.graph.Load(); pg != nil && k == s.cfg.TopK {
		return pg, nil
	}
	if k == s.cfg.TopK {
		s.lazyMu.Lock()
		defer s.lazyMu.Unlock()
		return s.sharedGraphLocked(ctx, eng)
	}
	// A private graph reads the build inputs; a substrate whose installed
	// graph is damaged is refused whatever it is asked.
	if err := s.checkBuildInputs(); err != nil {
		return nil, err
	}
	if st := s.query.Load(); st != nil {
		if err := st.graphCheck.RunOn(eng); err != nil {
			return nil, err
		}
	}
	return s.buildGraph(ctx, eng, k)
}

// sharedGraphLocked is the build-once step of graphFor; lazyMu is held. A
// graph installed from a snapshot is shared as it is, unscanned: the batch
// resolve reads a few of its rows and checks each as it reads it (the γ₁
// walk and the matcher's rules), so a damaged entry fails the resolve that
// reads it and no other. Substrate.Verify scans it whole.
func (s *Substrate) sharedGraphLocked(ctx context.Context, eng *parallel.Engine) (*pairGraph, error) {
	if pg := s.graph.Load(); pg != nil {
		return pg, nil
	}
	if st := s.query.Load(); st != nil {
		pg := &pairGraph{g: st.g}
		s.graph.Store(pg)
		return pg, nil
	}
	if err := s.checkBuildInputs(); err != nil {
		return nil, err
	}
	pg, err := s.buildGraph(ctx, eng, s.cfg.TopK)
	if err != nil {
		return nil, err
	}
	s.graphBuilds.Add(1)
	s.graph.Store(pg)
	return pg, nil
}

// BuildSubstrate runs stages 1–2 of the pipeline — statistics (name
// discovery, relation ranks, top neighbors) and composite blocking (name
// blocks, token indexing, Block Purging) — and freezes the results. The
// returned substrate is immutable and safe to share across goroutines.
func BuildSubstrate(ctx context.Context, k1, k2 *kb.KB, cfg Config) (*Substrate, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	eng := parallel.New(cfg.Workers)
	return buildSubstrate(ctx, eng, k1, k2, cfg)
}

// buildSubstrate is the internal form over a normalized Config.
//
// The build is a dependency DAG, not a sequence of barriers (Figure 4): three
// chains run as the stages of one ConcurrentCtx — the statistics chain
// (attributes → relations → top neighbors), name blocking, which needs only
// the discovered name attributes, and token indexing, which needs nothing
// from statistics. The attrsReady channel is the single handoff: closed
// after the name attributes and lookups are published, so the name chain
// reads them under a happens-before edge. If the statistics chain fails
// first, attrsReady never closes, but ConcurrentCtx cancels the sibling
// contexts and the name chain unblocks on sc.Done(). At one worker the
// chains run in argument order on this goroutine, which is the topological
// order: statistics, names, tokens.
//
// Statistics is the clock of the statistics chain and Blocking the sum of
// the clocks of the other two (CPU-work semantics, the elapsed time of each
// stage at one worker), while buildWall records the real — at more than one
// worker shorter, overlapped — elapsed time.
func buildSubstrate(ctx context.Context, eng *parallel.Engine, k1, k2 *kb.KB, cfg Config) (*Substrate, error) {
	// The build reads both KBs whole; KBs from a file are checked first.
	if err := errors.Join(k1.Verify(), k2.Verify()); err != nil {
		return nil, err
	}
	sub := &Substrate{k1: k1, k2: k2, cfg: cfg}
	start := time.Now()
	attrsReady := make(chan struct{})
	var names, tokens time.Duration
	err := eng.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			defer func(t0 time.Time) { sub.timings.Statistics = time.Since(t0) }(time.Now())
			if err := sub.statsAttributes(sc, eng); err != nil {
				return err
			}
			close(attrsReady)
			if err := sub.statsRelations(sc, eng); err != nil {
				return err
			}
			return sub.statsTopNeighbors(sc, eng)
		},
		func(sc context.Context) error {
			select {
			case <-attrsReady:
			case <-sc.Done():
				return sc.Err()
			}
			defer func(t0 time.Time) { names = time.Since(t0) }(time.Now())
			return sub.blockNames(sc, eng)
		},
		func(sc context.Context) error {
			defer func(t0 time.Time) { tokens = time.Since(t0) }(time.Now())
			return sub.blockTokens(sc, eng)
		},
	)
	if err != nil {
		return nil, err
	}
	sub.timings.Blocking = names + tokens
	sub.buildWall = time.Since(start)
	return sub, nil
}

// statsAttributes discovers the name attributes of both KBs concurrently and
// publishes the derived name lookups (the name-blocking input).
func (sub *Substrate) statsAttributes(ctx context.Context, eng *parallel.Engine) error {
	err := eng.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			var err error
			sub.nameAttrs1, err = stats.NameAttributesCtx(sc, eng, sub.k1, sub.cfg.NameK)
			return err
		},
		func(sc context.Context) error {
			var err error
			sub.nameAttrs2, err = stats.NameAttributesCtx(sc, eng, sub.k2, sub.cfg.NameK)
			return err
		},
	)
	if err != nil {
		return err
	}
	sub.names1 = stats.NewNameLookup(sub.k1, sub.nameAttrs1)
	sub.names2 = stats.NewNameLookup(sub.k2, sub.nameAttrs2)
	return nil
}

// statsRelations ranks the relations of both KBs concurrently.
func (sub *Substrate) statsRelations(ctx context.Context, eng *parallel.Engine) error {
	return eng.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			ri, err := stats.RelationImportancesCtx(sc, eng, sub.k1)
			sub.ranks1 = stats.RelationRanks(sub.k1, ri)
			return err
		},
		func(sc context.Context) error {
			ri, err := stats.RelationImportancesCtx(sc, eng, sub.k2)
			sub.ranks2 = stats.RelationRanks(sub.k2, ri)
			return err
		},
	)
}

// statsTopNeighbors extracts the per-entity top-neighbor rows of both KBs
// concurrently.
func (sub *Substrate) statsTopNeighbors(ctx context.Context, eng *parallel.Engine) error {
	return eng.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			top1, err := stats.TopNeighborsRanksCtx(sc, eng, sub.k1, sub.ranks1, sub.cfg.RelN)
			sub.top1 = graph.RowsOf(top1)
			return err
		},
		func(sc context.Context) error {
			top2, err := stats.TopNeighborsRanksCtx(sc, eng, sub.k2, sub.ranks2, sub.cfg.RelN)
			sub.top2 = graph.RowsOf(top2)
			return err
		},
	)
}

// blockNames builds the columnar name index over the published name lookups
// and lays its table out flat.
func (sub *Substrate) blockNames(ctx context.Context, eng *parallel.Engine) error {
	ix, err := blocking.NewNameIndexLookupsCtx(ctx, eng, sub.names1, sub.names2)
	if err != nil {
		return err
	}
	sub.names = nameTableOf(ix)
	return nil
}

// blockTokens builds the purged token index of the pair.
func (sub *Substrate) blockTokens(ctx context.Context, eng *parallel.Engine) error {
	ix, purged, threshold, err := purgedTokenIndex(ctx, eng, sub.k1, sub.k2, sub.cfg.MaxBlockFraction)
	if err != nil {
		return err
	}
	sub.tokenIx.Store(ix)
	sub.purgedBlocks, sub.purgeThreshold = purged, threshold
	return nil
}

// purgedTokenIndex builds the columnar token index of a pair (the
// shared-interner token space flows from the KB builders through the index
// into graph construction) with Block Purging of stop-word token blocks
// applied at the pair's comparison budget (blocking.ComparisonBudget, the
// one formula for the purging threshold). It is the whole of what a build
// freezes and a substrate from parts derives.
func purgedTokenIndex(ctx context.Context, eng *parallel.Engine, k1, k2 *kb.KB, fraction float64) (*blocking.TokenIndex, int, int64, error) {
	threshold := blocking.ComparisonBudget(k1.Len(), k2.Len(), fraction)
	ix, purged, err := blocking.NewPurgedTokenIndexCtx(ctx, eng, k1, k2, threshold)
	if err != nil {
		return nil, 0, 0, err
	}
	return ix, purged, threshold, nil
}

// TokenIndex returns the purged columnar token index. A substrate from parts
// derives it on first call, with the code a build runs, once both KBs' token
// columns pass their check. The derived index is refused with kb.ErrCorrupt,
// by that call and every later one, if a dictionary string it was merged by
// is damaged, or if it purges other blocks, or at another threshold, than
// the stored build did. The derive runs once: callers wait for it, and one
// whose context is cancelled fails alone, leaving the derive to the next.
func (s *Substrate) TokenIndex(ctx context.Context) (*blocking.TokenIndex, error) {
	return s.tokenIndex(ctx, parallel.New(s.cfg.Workers))
}

// tokenIndex is TokenIndex with the derive, if it runs, on eng.
func (s *Substrate) tokenIndex(ctx context.Context, eng *parallel.Engine) (*blocking.TokenIndex, error) {
	if ix := s.tokenIx.Load(); ix != nil {
		return ix, nil
	}
	s.tokenMu.Lock()
	defer s.tokenMu.Unlock()
	if ix := s.tokenIx.Load(); ix != nil || s.tokenErr != nil {
		return ix, s.tokenErr
	}
	k1, k2 := s.k1, s.k2
	if err := errors.Join(k1.CheckTokens(), k2.CheckTokens()); err != nil {
		return nil, err
	}
	ix, purged, threshold, err := purgedTokenIndex(ctx, eng, k1, k2, s.cfg.MaxBlockFraction)
	if err != nil {
		return nil, err
	}
	if err := dictErr(k1, k2); err != nil {
		s.tokenErr = err
		return nil, err
	}
	if purged != s.purgedBlocks || threshold != s.purgeThreshold {
		s.tokenErr = fmt.Errorf("%w: token index: %d blocks purged at threshold %d, the substrate says %d at %d",
			kb.ErrCorrupt, purged, threshold, s.purgedBlocks, s.purgeThreshold)
		return nil, s.tokenErr
	}
	s.tokenDerives.Add(1)
	s.tokenIx.Store(ix)
	return ix, nil
}

// dictErr reports the damage readers of a pair's token dictionaries have
// found: a damaged string reads as "" and fails its table's check. The
// derive of a pair with two dictionaries merges them by string, and the
// token blocks' keys are strings.
func dictErr(k1, k2 *kb.KB) error {
	return errors.Join(k1.TokenDict().Err(), k2.TokenDict().Err())
}

// checkBuildInputs runs the deferred checks of everything a graph build
// reads whole: both KBs, the top-neighbor rows and the name table.
func (s *Substrate) checkBuildInputs() error {
	for _, check := range []func() error{s.k1.Verify, s.k2.Verify,
		s.top1Check.Run, s.top2Check.Run, s.nameCheck.Run} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// Verify runs every deferred check of a substrate assembled from parts —
// both KBs with their string tables, the top-neighbor rows, the name table
// and the installed graph — and returns the first failure. Each check runs
// once and its verdict sticks; the first reader of each section would run
// it anyway. A built substrate has nothing to verify.
func (s *Substrate) Verify() error {
	if err := s.checkBuildInputs(); err != nil {
		return err
	}
	if st := s.query.Load(); st != nil {
		return st.graphCheck.Run()
	}
	return nil
}

// K1 returns the substrate's first (query-side) KB.
func (s *Substrate) K1() *kb.KB { return s.k1 }

// K2 returns the substrate's second (candidate-side) KB.
func (s *Substrate) K2() *kb.KB { return s.k2 }

// Config returns the normalized configuration the substrate was built with.
func (s *Substrate) Config() Config { return s.cfg }

// NameAttrs returns the discovered name attributes of each KB.
func (s *Substrate) NameAttrs() (nameAttrs1, nameAttrs2 []string) {
	return s.nameAttrs1, s.nameAttrs2
}

// NameBlocks returns the name blocks — the name table's rows that both KBs
// carry — as a collection laid over the table. On a substrate from parts it
// runs the table's check first, and reports the damage it finds.
func (s *Substrate) NameBlocks() (*blocking.Collection, error) {
	if err := s.nameCheck.Run(); err != nil {
		return nil, err
	}
	t := s.names
	blocks := make([]blocking.Block, 0, t.Keys.Len())
	for i := range t.Keys.Len() {
		if e1, e2 := t.E1.Row(i), t.E2.Row(i); len(e1) > 0 && len(e2) > 0 {
			blocks = append(blocks, blocking.Block{Key: t.Keys.At(i), E1: e1, E2: e2})
		}
	}
	return &blocking.Collection{Blocks: blocks}, nil
}

// PurgedBlocks reports how many token blocks Block Purging removed;
// PurgeThreshold the applied per-block comparison cap (0 = none).
func (s *Substrate) PurgedBlocks() int { return s.purgedBlocks }

// PurgeThreshold reports the applied per-block comparison cap (0 = none).
func (s *Substrate) PurgeThreshold() int64 { return s.purgeThreshold }

// BuildDuration reports the wall clock of BuildSubstrate (zero for a
// substrate from parts).
func (s *Substrate) BuildDuration() time.Duration { return s.buildWall }

// Timings returns the build's stage clocks, Statistics and Blocking (the
// resolution stages are zero, and all of them on a substrate from parts).
// They are CPU-work sums — see Timings — while BuildDuration is the real,
// possibly overlapped, elapsed wall time.
func (s *Substrate) Timings() Timings { return s.timings }

// TokenBlocks materializes the token-block collection (the Table-2
// statistics view of the purged index) on first call and caches it. No
// resolution or query reads it: graph construction walks the TokenIndex.
// On a substrate from parts it fails where TokenIndex does, and where a
// block key it read is a damaged dictionary string.
func (s *Substrate) TokenBlocks() (*blocking.Collection, error) {
	ix, err := s.TokenIndex(context.TODO())
	if err != nil {
		return nil, err
	}
	s.blocksOnce.Do(func() { s.blocks = ix.Collection() })
	if err := dictErr(s.k1, s.k2); err != nil {
		return nil, err
	}
	return s.blocks, nil
}
