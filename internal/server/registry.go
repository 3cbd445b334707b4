// The substrate registry: the server-side home of the "build once, share
// across requests" discipline. Each entry owns one immutable core.Substrate
// built once — in a child process when the registry has a build command, by
// a goroutine of this process otherwise; concurrent loads of the same pair
// coalesce onto that one build (the in-library singleflight of
// Substrate.PrewarmQueries lifted to the service layer), every request after
// that shares the frozen substrate, and nothing is ever rebuilt per request.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/snapshot"
)

// Pair is one registry entry: the spec it was loaded from, its build state
// and — once ready — the shared substrate. All mutable fields are guarded by
// the owning Registry's mutex; the substrate itself is immutable.
type Pair struct {
	id   string
	spec LoadPairRequest
	cfg  core.Config

	status string
	sub    *core.Substrate
	err    error
	// loaded is the open snapshot whose mapping sub aliases, for a pair that
	// came from one or was built by a child process. refs counts who may
	// still read sub: the registry while the pair is registered, and every
	// request between Acquire and Release. Whoever takes it to zero unmaps.
	loaded *snapshot.Loaded
	refs   atomic.Int64

	report buildReport

	// cancel aborts the in-flight build; done closes when the build goroutine
	// finishes (success or failure), so waiters and shutdown can join it.
	cancel context.CancelFunc
	done   chan struct{}

	queries atomic.Int64
}

// ID returns the pair's registry identifier.
func (p *Pair) ID() string { return p.id }

// Done returns a channel closed once the pair's build has finished.
func (p *Pair) Done() <-chan struct{} { return p.done }

// Release gives back a reference taken by Registry.Acquire. The last one out
// of a deleted pair unmaps its snapshot.
func (p *Pair) Release() {
	if p.refs.Add(-1) == 0 && p.loaded != nil {
		// A failed munmap leaves the pages mapped, which is all that never
		// closing did.
		_ = p.loaded.Close()
	}
}

// Registry holds the loaded pairs. It is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	pairs map[string]*Pair

	// baseCtx parents every build so shutdown can abort them all; wg joins
	// the build goroutines.
	baseCtx context.Context
	abort   context.CancelFunc
	wg      sync.WaitGroup

	// builds counts build goroutines ever started — the singleflight tests'
	// observable: N concurrent loads of one pair must leave it at 1.
	builds atomic.Int64

	// buildCommand, when set, is the argv of the one-shot process that builds
	// a pair from its KB files (see buildchild.go). Without it buildPair does
	// the same work on a goroutine of this process; tests swap buildPair to
	// control build duration and failure.
	buildCommand []string
	buildPair    func(ctx context.Context, spec LoadPairRequest) (*core.Substrate, buildReport, error)

	log *slog.Logger
}

// NewRegistry returns an empty registry whose builds abort when the registry
// is closed.
func NewRegistry() *Registry {
	ctx, cancel := context.WithCancel(context.Background())
	return &Registry{
		pairs:     make(map[string]*Pair),
		baseCtx:   ctx,
		abort:     cancel,
		buildPair: defaultBuild,
		log:       slog.Default(),
	}
}

// Load registers the pair described by spec and starts its asynchronous
// build, returning the entry and whether this call created it. A spec whose
// ID (explicit or derived) is already registered returns the existing entry
// — building, ready or failed — without starting a second build: concurrent
// first-loads are serialized behind the one build goroutine, whose
// completion every caller can await via Pair.Done.
func (r *Registry) Load(spec LoadPairRequest) (*Pair, bool, error) {
	// The build and every resolution of the pair size per-worker state by
	// the worker count, so it is bounded by the processors of this process.
	if c := spec.Config; c != nil && (c.Workers < 0 || c.Workers > runtime.GOMAXPROCS(0)) {
		return nil, false, fmt.Errorf("config.workers %d is outside [0, %d], the processors of this server", c.Workers, runtime.GOMAXPROCS(0))
	}
	if spec.Snapshot != "" {
		if spec.E1 != "" || spec.E2 != "" {
			return nil, false, fmt.Errorf("pair spec mixes a snapshot with e1/e2 paths")
		}
		if spec.SaveSnapshot != "" {
			return nil, false, fmt.Errorf("pair spec mixes snapshot and save_snapshot")
		}
	} else {
		if spec.E1 == "" || spec.E2 == "" {
			return nil, false, fmt.Errorf("pair spec needs e1 and e2 paths (or a snapshot)")
		}
		switch spec.Format {
		case "":
			spec.Format = "nt"
		case "nt", "tsv":
		default:
			return nil, false, fmt.Errorf("unknown format %q (want nt or tsv)", spec.Format)
		}
	}
	id := spec.ID
	if id == "" {
		id = deriveID(spec)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pairs[id]; ok {
		return p, false, nil
	}
	ctx, cancel := context.WithCancel(r.baseCtx)
	p := &Pair{
		id:     id,
		spec:   spec,
		cfg:    spec.Config.coreConfig(),
		status: StatusBuilding,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	p.refs.Store(1)
	r.pairs[id] = p
	r.builds.Add(1)
	r.wg.Add(1)
	go r.runBuild(ctx, p)
	return p, true, nil
}

// AddSubstrate registers an already-built substrate under id — the path the
// bench harness and tests use to serve an in-memory dataset without files.
func (r *Registry) AddSubstrate(id string, spec LoadPairRequest, sub *core.Substrate) (*Pair, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.pairs[id]; ok {
		return nil, fmt.Errorf("pair %q already registered", id)
	}
	p := &Pair{
		id:     id,
		spec:   spec,
		cfg:    sub.Config(),
		status: StatusReady,
		sub:    sub,
		cancel: func() {},
		done:   make(chan struct{}),
	}
	p.refs.Store(1)
	close(p.done)
	r.pairs[id] = p
	return p, nil
}

// runBuild is the single build goroutine of one pair.
func (r *Registry) runBuild(ctx context.Context, p *Pair) {
	defer r.wg.Done()
	defer p.cancel() // release the ctx once the build settles
	var (
		sub    *core.Substrate
		loaded *snapshot.Loaded
		rep    buildReport
		err    error
	)
	switch {
	case p.spec.Snapshot != "":
		// Snapshot-sourced pair: the mmap open replaces KB parsing, the
		// substrate build and the prewarm.
		t0 := time.Now()
		loaded, err = snapshot.OpenSubstrate(p.spec.Snapshot)
		rep.LoadMS = msOf(time.Since(t0))
	case len(r.buildCommand) > 0:
		loaded, rep, err = r.buildInChild(ctx, p.spec)
	default:
		sub, rep, err = r.buildPair(ctx, p.spec)
	}
	if loaded != nil {
		sub = loaded.Substrate()
	}
	for i, path := range []string{p.spec.E1, p.spec.E2} {
		if rep.Skipped[i] > 0 {
			r.log.Warn("skipped malformed lines", "pair", p.id, "path", path, "lines", rep.Skipped[i])
		}
	}
	r.mu.Lock()
	// Deleted while it was building: no request can reach the pair and
	// nobody will release it, so the mapping is closed here.
	orphan := p.refs.Load() == 0
	if err != nil {
		p.status = StatusFailed
		p.err = err
	} else {
		p.status = StatusReady
		p.sub = sub
		p.report = rep
		if !orphan {
			p.loaded = loaded
		}
		if loaded != nil {
			// A snapshot carries its own build configuration; queries and
			// resolves must use it, not the spec's defaults.
			p.cfg = sub.Config()
		}
	}
	r.mu.Unlock()
	if loaded != nil && (err != nil || orphan) {
		_ = loaded.Close() // as in Release
	}
	close(p.done)
}

// Get returns the pair registered under id.
func (r *Registry) Get(id string) (*Pair, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pairs[id]
	return p, ok
}

// Delete unregisters a pair, aborting its build if still in flight. Requests
// that acquired the pair before keep its substrate, and the snapshot mapping
// under it, until they release it; the last of them unmaps.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	p, ok := r.pairs[id]
	if ok {
		delete(r.pairs, id)
		p.Release() // the registry's own reference
	}
	r.mu.Unlock()
	if ok {
		p.cancel()
	}
	return ok
}

// List returns every pair's PairInfo, sorted by ID for stable output.
func (r *Registry) List() []PairInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PairInfo, 0, len(r.pairs))
	for _, p := range r.pairs {
		out = append(out, r.infoLocked(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Info returns one pair's PairInfo snapshot.
func (r *Registry) Info(p *Pair) PairInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked(p)
}

func (r *Registry) infoLocked(p *Pair) PairInfo {
	info := PairInfo{
		ID:       p.id,
		Status:   p.status,
		E1:       p.spec.E1,
		E2:       p.spec.E2,
		Format:   p.spec.Format,
		Snapshot: p.spec.Snapshot,
		Queries:  p.queries.Load(),
	}
	switch p.status {
	case StatusReady:
		info.E1Size = p.sub.K1().Len()
		info.E2Size = p.sub.K2().Len()
		rep := p.report
		info.LoadMS, info.BuildMS, info.PrewarmMS, info.Timings = rep.LoadMS, rep.BuildMS, rep.PrewarmMS, rep.Timings
	case StatusFailed:
		info.Error = p.err.Error()
	}
	return info
}

// Len reports the number of registered pairs.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pairs)
}

// Builds reports how many build goroutines were ever started — the
// singleflight invariant's observable.
func (r *Registry) Builds() int64 { return r.builds.Load() }

// Acquire returns the ready pair registered under id with a reference held,
// or a *apiError describing why it is unavailable. Until the caller's
// Release the pair's substrate stays readable, even if the pair is deleted
// meanwhile; a deleted pair cannot be acquired.
func (r *Registry) Acquire(id string) (*Pair, *apiError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pairs[id]
	if !ok {
		return nil, errPairNotFound(id)
	}
	switch p.status {
	case StatusBuilding:
		return nil, &apiError{status: 409, code: CodePairNotReady,
			msg: fmt.Sprintf("pair %q is still building; poll GET /v1/pairs/%s", id, id)}
	case StatusFailed:
		return nil, &apiError{status: 500, code: CodePairFailed,
			msg: fmt.Sprintf("pair %q failed to build: %v", id, p.err)}
	}
	p.refs.Add(1) // a registered pair holds the registry's reference, so this is never the first
	return p, nil
}

// Close aborts every in-flight build and waits for the build goroutines to
// exit. Ready substrates stay readable (shutdown drains queries separately).
func (r *Registry) Close() {
	r.abort()
	r.wg.Wait()
}

// deriveID hashes the load spec into a deterministic pair ID, so identical
// concurrent loads without an explicit ID coalesce onto one entry. The
// hash keeps the values "false|true" of two request fields since removed,
// "stream" and "prewarm", so that the IDs clients already hold do not
// change.
func deriveID(spec LoadPairRequest) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|false|true|%s|%s",
		spec.E1, spec.E2, spec.Format, spec.Snapshot, spec.SaveSnapshot)
	if c := spec.Config; c != nil {
		fmt.Fprintf(h, "|%d|%d|%d|%g|%g|%d", c.NameK, c.TopK, c.RelN, c.Theta, c.MaxBlockFraction, c.Workers)
	}
	return "p-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// msOf converts a duration to the wire's millisecond unit.
func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
