// The build-once substrate: every expensive pair-level structure the
// pipeline derives from a KB pair BEFORE any resolution decision is made —
// discovered name attributes, name lookups, dense relation ranks,
// top-neighbor rows, name blocks and the purged columnar TokenIndex — packed
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

	// nameRows are the name blocks in the flat form a snapshot holds; the
	// collection NameBlocks hands out is laid over them on first use.
	nameRows       NameBlockRows
	nameOnce       sync.Once
	nameBlocks     *blocking.Collection
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
	// the historical "whole pipeline" meaning.
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

	// The deferred range checks of a substrate assembled from parts, which
	// may have come from a file and were shape-checked only: the entity IDs
	// of the top-neighbor rows and the name blocks' members, each run once,
	// by the first reader that walks them whole, with the verdict kept. Nil
	// for a built substrate. The installed query state carries its own
	// (queryState).
	top1Check, top2Check, nameBlockCheck *kb.Deferred
}

// pairGraph is a built graph with the clock of its construction.
type pairGraph struct {
	g    *graph.Graph
	tm   graph.Timings
	wall time.Duration
}

// buildGraph runs Algorithm 1 over the substrate with candidate rows pruned
// to k.
func (s *Substrate) buildGraph(ctx context.Context, eng *parallel.Engine, k int) (*pairGraph, error) {
	ix, err := s.TokenIndex(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, tm, err := graph.BuildSharedCtx(ctx, eng, graph.Input{
		K1: s.k1, K2: s.k2,
		NameBlocks: s.NameBlocks(),
		TokenIndex: ix,
		K:          k,
	}, s.top1, s.top2)
	if err != nil {
		return nil, err
	}
	return &pairGraph{g: g, tm: tm, wall: time.Since(t0)}, nil
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
		if err := st.graphCheck.Run(); err != nil {
			return nil, err
		}
	}
	return s.buildGraph(ctx, eng, k)
}

// sharedGraphLocked is the build-once step of graphFor; lazyMu is held. A
// graph installed from a snapshot is the query state's until its targets
// are verified here — the whole of what a γ₁ walk and the matcher read —
// and the shared graph from then on.
func (s *Substrate) sharedGraphLocked(ctx context.Context, eng *parallel.Engine) (*pairGraph, error) {
	if pg := s.graph.Load(); pg != nil {
		return pg, nil
	}
	if st := s.query.Load(); st != nil {
		if err := st.graphCheck.Run(); err != nil {
			return nil, err
		}
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
// The build is a dependency DAG, not a sequence of barriers: token indexing
// depends on nothing from statistics, so it overlaps all of stage 1; name
// blocking needs only the discovered name attributes, so it starts as soon
// as those land, overlapping the relation and top-neighbor passes. Every
// sub-stage keeps its own clock, so the per-stage Timings fields
// stay meaningful: Statistics and Blocking are reported as the SUM of their
// sub-clocks (CPU-work semantics, identical to the historical barrier walls
// at one worker), while buildWall records the real — shorter, overlapped —
// elapsed time. At Workers() == 1 the same sub-stages run in topological
// order instead: overlap cannot help one worker, and sequential clocks keep
// the 1-core stage clocks free of goroutine-interleaving noise.
func buildSubstrate(ctx context.Context, eng *parallel.Engine, k1, k2 *kb.KB, cfg Config) (*Substrate, error) {
	// The build reads both KBs whole; KBs from a file are checked first.
	if err := errors.Join(k1.Verify(), k2.Verify()); err != nil {
		return nil, err
	}
	sub := &Substrate{k1: k1, k2: k2, cfg: cfg}
	start := time.Now()
	var err error
	if eng.Workers() > 1 {
		err = sub.buildOverlapped(ctx, eng)
	} else {
		err = sub.buildSequential(ctx, eng)
	}
	if err != nil {
		return nil, err
	}
	sub.timings.Statistics = sub.timings.StatsAttributes + sub.timings.StatsRelations + sub.timings.StatsTopNeighbors
	sub.timings.Blocking = sub.timings.BlockingName + sub.timings.BlockingToken
	sub.buildWall = time.Since(start)
	return sub, nil
}

// buildSequential runs the substrate DAG in topological order, one sub-stage
// at a time, each under its own clock.
func (sub *Substrate) buildSequential(ctx context.Context, eng *parallel.Engine) error {
	if err := sub.statsAttributes(ctx, eng); err != nil {
		return err
	}
	if err := sub.statsRelations(ctx, eng); err != nil {
		return err
	}
	if err := sub.statsTopNeighbors(ctx, eng); err != nil {
		return err
	}
	if err := sub.blockNames(ctx, eng); err != nil {
		return err
	}
	return sub.blockTokens(ctx, eng)
}

// buildOverlapped runs the substrate DAG with its three independent chains
// concurrent: token indexing (no stage-1 inputs), the statistics chain
// (attributes → relations → top neighbors), and name blocking, which blocks
// only on the attribute pass. The attrsReady channel is the single handoff —
// closed after the name attributes and lookups are published, so the name
// chain reads them under a happens-before edge. If the statistics chain
// fails first, attrsReady never closes, but ConcurrentCtx cancels the
// sibling contexts and the name chain unblocks on sc.Done().
func (sub *Substrate) buildOverlapped(ctx context.Context, eng *parallel.Engine) error {
	attrsReady := make(chan struct{})
	return eng.ConcurrentCtx(ctx,
		func(sc context.Context) error {
			return sub.blockTokens(sc, eng)
		},
		func(sc context.Context) error {
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
			return sub.blockNames(sc, eng)
		},
	)
}

// statsAttributes discovers the name attributes of both KBs concurrently and
// publishes the derived name lookups (the name-blocking input).
func (sub *Substrate) statsAttributes(ctx context.Context, eng *parallel.Engine) error {
	t0 := time.Now()
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
	sub.timings.StatsAttributes = time.Since(t0)
	return nil
}

// statsRelations ranks the relations of both KBs concurrently.
func (sub *Substrate) statsRelations(ctx context.Context, eng *parallel.Engine) error {
	t0 := time.Now()
	err := eng.ConcurrentCtx(ctx,
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
	if err != nil {
		return err
	}
	sub.timings.StatsRelations = time.Since(t0)
	return nil
}

// statsTopNeighbors extracts the per-entity top-neighbor rows of both KBs
// concurrently.
func (sub *Substrate) statsTopNeighbors(ctx context.Context, eng *parallel.Engine) error {
	t0 := time.Now()
	err := eng.ConcurrentCtx(ctx,
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
	if err != nil {
		return err
	}
	sub.timings.StatsTopNeighbors = time.Since(t0)
	return nil
}

// blockNames builds the columnar name index over the published name lookups
// and lays its blocks out flat.
func (sub *Substrate) blockNames(ctx context.Context, eng *parallel.Engine) error {
	t0 := time.Now()
	ix, err := blocking.NewNameIndexLookupsCtx(ctx, eng, sub.names1, sub.names2)
	if err != nil {
		return err
	}
	sub.nameRows = nameBlockRowsOf(ix.Collection())
	sub.timings.BlockingName = time.Since(t0)
	return nil
}

// blockTokens builds the purged token index of the pair.
func (sub *Substrate) blockTokens(ctx context.Context, eng *parallel.Engine) error {
	t0 := time.Now()
	ix, purged, threshold, err := purgedTokenIndex(ctx, eng, sub.k1, sub.k2, sub.cfg.MaxBlockFraction)
	if err != nil {
		return err
	}
	sub.tokenIx.Store(ix)
	sub.purgedBlocks, sub.purgeThreshold = purged, threshold
	sub.timings.BlockingToken = time.Since(t0)
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
	ix, purged, threshold, err := purgedTokenIndex(ctx, parallel.New(s.cfg.Workers), k1, k2, s.cfg.MaxBlockFraction)
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
// reads whole: both KBs, the top-neighbor rows and the name blocks.
func (s *Substrate) checkBuildInputs() error {
	for _, check := range []func() error{s.k1.Verify, s.k2.Verify,
		s.top1Check.Run, s.top2Check.Run, s.nameBlockCheck.Run} {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// Verify runs every deferred check of a substrate assembled from parts —
// both KBs with their string tables, the top-neighbor rows, the name blocks,
// and the installed graph and name-usage index — and returns the first
// failure. Each check runs once and its verdict sticks; the first reader of
// each section would run it anyway. A built substrate has nothing to verify.
func (s *Substrate) Verify() error {
	if err := s.checkBuildInputs(); err != nil {
		return err
	}
	if st := s.query.Load(); st != nil {
		return errors.Join(st.graphCheck.Run(), st.namesCheck.Run())
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

// NameBlocks returns the name block collection, laid over the flat name
// blocks on first call. It has no error result: on a substrate from parts
// callers run Verify first, since one whose name blocks are damaged returns
// an empty collection. ResolveWith checks them and reports the error.
func (s *Substrate) NameBlocks() *blocking.Collection {
	s.nameOnce.Do(func() {
		if s.nameBlockCheck.Run() != nil {
			s.nameBlocks = &blocking.Collection{}
			return
		}
		r := s.nameRows
		blocks := make([]blocking.Block, r.Keys.Len())
		for i := range blocks {
			blocks[i] = blocking.Block{Key: r.Keys.At(i), E1: r.E1.Row(i), E2: r.E2.Row(i)}
		}
		s.nameBlocks = &blocking.Collection{Blocks: blocks}
	})
	return s.nameBlocks
}

// PurgedBlocks reports how many token blocks Block Purging removed;
// PurgeThreshold the applied per-block comparison cap (0 = none).
func (s *Substrate) PurgedBlocks() int { return s.purgedBlocks }

// PurgeThreshold reports the applied per-block comparison cap (0 = none).
func (s *Substrate) PurgeThreshold() int64 { return s.purgeThreshold }

// BuildDuration reports the wall clock of BuildSubstrate.
func (s *Substrate) BuildDuration() time.Duration { return s.buildWall }

// Timings returns the build's per-stage clocks (statistics and blocking
// sub-stages; the resolution stages are zero). Statistics and Blocking are
// CPU-work sums of their sub-clocks — see Timings — while BuildDuration is
// the real, possibly overlapped, elapsed wall time.
func (s *Substrate) Timings() Timings { return s.timings }

// TokenBlocks materializes the token-block collection (the Table-2
// statistics view of the purged index) on first call and caches it. No
// resolution or query reads it: graph construction walks the TokenIndex.
//
// It has no error result: on a substrate from parts whose token index
// cannot be derived (TokenIndex), or whose block keys are damaged, it
// returns an empty collection. TokenIndex reports the first of these.
func (s *Substrate) TokenBlocks() *blocking.Collection {
	ix, err := s.TokenIndex(context.TODO())
	if err != nil {
		return &blocking.Collection{}
	}
	s.blocksOnce.Do(func() { s.blocks = ix.Collection() })
	if dictErr(s.k1, s.k2) != nil {
		return &blocking.Collection{}
	}
	return s.blocks
}
