// Package parallel is the massively-parallel execution substrate of this
// MinoanER reproduction. The paper (§4.1, Figure 4) runs every stage as
// data-parallel Spark tasks with synchronization barriers between stages;
// here the same structure is provided by an in-process engine: inputs are
// split into partitions, partitions are processed by a fixed worker pool,
// and results are merged deterministically in partition order.
//
// Determinism is a design requirement (tested property): for any worker
// count and either scheduler, every operation in this package produces
// results identical to the sequential execution, so the matcher's output
// never depends on scheduling.
//
// Two schedulers are available per call site:
//
//   - Static (the default): [0, n) is split into one contiguous span per
//     worker. Minimal overhead, ideal for uniform per-row work.
//   - Dynamic (via Chunked): [0, n) is split into many fixed-size chunks
//     claimed from a shared atomic counter. Token blocks follow a power-law
//     size distribution, so per-entity work in blocking-graph construction
//     and matching is heavily skewed; dynamic claiming keeps all workers
//     busy instead of idling behind one oversized static span.
//
// Passes that accumulate into dense per-row state use the worker-local
// scratch variants (ForLocalCtx, MapLocalCtx): each worker lazily builds
// one reusable scratch value — a scoreboard, a buffer — and amortizes it
// over every span it claims, turning per-row allocation into per-pass
// allocation without any locking.
//
// Every operation has a context-aware variant (ForCtx, MapSpansCtx,
// ConcurrentCtx, …) with cooperative cancellation and
// first-error propagation in the style of errgroup: the first failing task
// cancels the rest, and its error is returned after all workers stop.
// Cancellation is observed between spans/chunks, so the dynamic scheduler
// also bounds cancellation latency.
//
// Invariant relied on by every non-ctx wrapper (here, and in the graph and
// baselines callers that run a Ctx stage under context.Background()): a Ctx
// variant can only fail with an error from ctx or from a task callback.
// Wrappers pass context.Background() and callbacks that never fail, so the
// discarded error is provably nil. Any future non-ctx failure mode added to
// a Ctx variant must convert these wrappers to return errors.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine executes data-parallel stages on a fixed number of workers. The
// zero value is not usable; construct with New. Engines are stateless and
// safe for concurrent use.
type Engine struct {
	workers int
	chunked bool
}

// New returns an Engine with the given worker count. workers <= 0 selects
// runtime.GOMAXPROCS(0), i.e. all available cores — the analogue of giving
// Spark the whole cluster.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Sequential is a single-worker engine, used as the reference execution in
// determinism tests and for tiny inputs where parallelism costs more than it
// saves (the paper makes the same observation about Spark overhead on the
// Restaurant dataset).
func Sequential() *Engine { return New(1) }

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return e.workers }

// Chunked returns a view of the engine that uses the dynamic chunked
// scheduler: inputs are split into many fixed-size chunks that workers claim
// from a shared atomic counter, so a partition of skewed rows cannot leave
// the other workers idle. Results are still merged in chunk (= row) order,
// so all determinism guarantees are preserved. The receiver is unchanged.
func (e *Engine) Chunked() *Engine {
	if e.chunked {
		return e
	}
	return &Engine{workers: e.workers, chunked: true}
}

// Span is a half-open index range [Lo, Hi) — one partition of the input.
type Span struct{ Lo, Hi int }

// Len returns the number of indices in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// Partitions splits [0, n) into at most max(workers, 1) contiguous spans of
// near-equal size. It never returns empty spans; for n == 0 it returns nil.
func (e *Engine) Partitions(n int) []Span {
	if n <= 0 {
		return nil
	}
	p := e.workers
	if p > n {
		p = n
	}
	spans := make([]Span, 0, p)
	base, rem := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < rem {
			size++
		}
		spans = append(spans, Span{lo, lo + size})
		lo += size
	}
	return spans
}

// chunksPerWorker controls dynamic chunk granularity: enough chunks that a
// skewed chunk cannot dominate a worker's share, few enough that the atomic
// claim overhead stays negligible.
const chunksPerWorker = 8

// Chunks splits [0, n) into fixed-size contiguous chunks for the dynamic
// scheduler, targeting chunksPerWorker chunks per worker. It never returns
// empty chunks; for n == 0 it returns nil.
func (e *Engine) Chunks(n int) []Span {
	if n <= 0 {
		return nil
	}
	target := e.workers * chunksPerWorker
	size := (n + target - 1) / target
	if size < 1 {
		size = 1
	}
	spans := make([]Span, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		spans = append(spans, Span{lo, hi})
	}
	return spans
}

// spans returns the partitioning of [0, n) under the engine's scheduler.
func (e *Engine) spans(n int) []Span {
	if e.chunked {
		return e.Chunks(n)
	}
	return e.Partitions(n)
}

// runSpans is the scheduling core shared by every operation: workers claim
// spans from an atomic counter (for static partitioning there is one span
// per worker, so claiming degenerates to the classic assignment; for
// chunked partitioning it load-balances). fn receives the claiming worker's
// slot in [0, Workers()) — one slot is never active on two goroutines at
// once, the invariant worker-local scratch relies on — and the span's index
// so callers can store results deterministically. The first error cancels
// the remaining spans and is returned once all workers have stopped; if the
// parent context is cancelled mid-run, its error is returned instead.
func (e *Engine) runSpans(ctx context.Context, spans []Span, fn func(worker, pi int, s Span) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	if len(spans) == 1 || e.workers == 1 {
		for pi, s := range spans {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, pi, s); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	workers := e.workers
	if workers > len(spans) {
		workers = len(spans)
	}
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(w int) {
			defer wg.Done()
			for {
				if cctx.Err() != nil {
					return
				}
				pi := int(next.Add(1)) - 1
				if pi >= len(spans) {
					return
				}
				if err := fn(w, pi, spans[pi]); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// If no task failed but the parent context was cancelled, report that.
	once.Do(func() { firstErr = ctx.Err() })
	return firstErr
}

// ForSpansCtx runs fn once per span of [0, n) concurrently under the
// engine's scheduler, propagating cancellation and the first error.
func (e *Engine) ForSpansCtx(ctx context.Context, n int, fn func(s Span) error) error {
	return e.runSpans(ctx, e.spans(n), func(_, _ int, s Span) error { return fn(s) })
}

// ForSpansIndexedCtx is ForSpansCtx with the span's position in the
// engine's deterministic span list (Partitions for the static scheduler,
// Chunks for the dynamic one) passed alongside, so a pass can correlate
// per-span state — local counters, write cursors — produced by an earlier
// pass over the same engine and length.
func (e *Engine) ForSpansIndexedCtx(ctx context.Context, n int, fn func(pi int, s Span) error) error {
	return e.runSpans(ctx, e.spans(n), func(_, pi int, s Span) error { return fn(pi, s) })
}

// ForCtx runs fn(i) for every i in [0, n) with cancellation and first-error
// propagation. fn must be safe to call concurrently for distinct i.
func (e *Engine) ForCtx(ctx context.Context, n int, fn func(i int) error) error {
	return e.ForSpansCtx(ctx, n, func(s Span) error {
		for i := s.Lo; i < s.Hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// ForSpans runs fn once per partition of [0, n) concurrently and waits for
// completion. Partition-grained work lets callers keep per-partition state
// (local hash maps, accumulators) without locking — the moral equivalent of
// Spark's mapPartitions.
func (e *Engine) ForSpans(n int, fn func(s Span)) {
	_ = e.ForSpansCtx(context.Background(), n, func(s Span) error {
		fn(s)
		return nil
	})
}

// ConcurrentCtx runs the given stages as independent pipeline branches
// (Figure 4), not data partitions. With more than one worker every stage
// gets its own goroutine, however many stages there are, and receives a
// context that is cancelled as soon as any sibling fails or the parent
// context is cancelled; the first error is returned after all stages have
// finished (errgroup semantics). With one worker the stages run in argument
// order on the calling goroutine under ctx, and the first error — a stage's,
// or ctx's between stages — skips the stages after it, as runSpans does. A
// stage may therefore wait only on stages before it in the argument list.
func (e *Engine) ConcurrentCtx(ctx context.Context, stages ...func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(stages) == 1 || e.workers == 1 {
		for _, st := range stages {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := st(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(len(stages))
	for _, st := range stages {
		go func(st func(ctx context.Context) error) {
			defer wg.Done()
			if err := st(cctx); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(st)
	}
	wg.Wait()
	once.Do(func() { firstErr = ctx.Err() })
	return firstErr
}

// MapSpansCtx applies fn to every span of [0, n) concurrently and returns
// the per-span results in span order (deterministic regardless of
// scheduling). On cancellation or error the partial results are discarded.
func MapSpansCtx[T any](ctx context.Context, e *Engine, n int, fn func(s Span) (T, error)) ([]T, error) {
	spans := e.spans(n)
	out := make([]T, len(spans))
	err := e.runSpans(ctx, spans, func(_, pi int, s Span) error {
		v, err := fn(s)
		if err != nil {
			return err
		}
		out[pi] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapSpans applies fn to every partition of [0, n) concurrently and returns
// the per-partition results in partition order (deterministic regardless of
// scheduling).
func MapSpans[T any](e *Engine, n int, fn func(s Span) T) []T {
	out, _ := MapSpansCtx(context.Background(), e, n, func(s Span) (T, error) {
		return fn(s), nil
	})
	return out
}

// ForLocalCtx runs fn(scratch, i) for every i in [0, n) under the engine's
// scheduler, handing each worker its own scratch value built lazily by
// newScratch on the worker's first span and REUSED across every span that
// worker claims. This is the substrate for scatter-accumulation passes that
// would otherwise allocate per row: a worker's dense scoreboard, bitset or
// buffer is paid for once per pass instead of once per entity, and because
// a scratch value is only ever visible to the one goroutine owning its
// worker slot, no locking is needed. fn must leave the scratch in a reset
// state before returning (a dirty scratch leaks into the worker's next row
// — the property tests in the graph package pin this down).
//
// Rows are still processed in deterministic per-index isolation: which
// worker (and thus which scratch) handles a row affects no observable
// output as long as fn resets its scratch, so all determinism guarantees of
// ForCtx/MapCtx carry over.
func ForLocalCtx[S any](ctx context.Context, e *Engine, n int, newScratch func() S, fn func(scratch S, i int) error) error {
	var (
		scratch = make([]S, e.workers)
		ready   = make([]bool, e.workers)
	)
	return e.runSpans(ctx, e.spans(n), func(w, _ int, s Span) error {
		// Slot w is owned by exactly one goroutine for the whole run, so the
		// lazy build and reuse need no synchronization.
		if !ready[w] {
			scratch[w] = newScratch()
			ready[w] = true
		}
		sc := scratch[w]
		for i := s.Lo; i < s.Hi; i++ {
			if err := fn(sc, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// MapLocalCtx is MapCtx with a per-worker reusable scratch value (see
// ForLocalCtx): results are returned in index order, partial results are
// discarded on error or cancellation.
func MapLocalCtx[S, T any](ctx context.Context, e *Engine, n int, newScratch func() S, fn func(scratch S, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForLocalCtx(ctx, e, n, newScratch, func(sc S, i int) error {
		v, err := fn(sc, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapCtx applies fn to every index of [0, n) concurrently and returns
// results in index order, with cancellation and first-error propagation.
func MapCtx[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.ForCtx(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Map applies fn to every index of [0, n) concurrently and returns results
// in index order.
func Map[T any](e *Engine, n int, fn func(i int) T) []T {
	out, _ := MapCtx(context.Background(), e, n, func(i int) (T, error) {
		return fn(i), nil
	})
	return out
}
