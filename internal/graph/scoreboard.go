// The scoreboard: dense, reusable scatter-accumulation state for the β/γ
// weighting of Algorithm 1.
//
// Candidate accumulation is a pure aggregate-per-candidate reduction: for
// one entity, walk its evidence (shared token blocks for β, neighbor edges
// for γ) and sum a weight per touched candidate of the other KB. Hashing a
// map key per contribution dominated that walk; enhanced meta-blocking
// (Papadakis et al., EDBT 2016) replaces the map with a dense per-worker
// array indexed by entity ID plus a sparse "touched" list, and this package
// does the same. The board is sized once per worker (parallel.ForLocalCtx),
// each entity scatters into it with plain float adds, and the reset walks
// only the touched IDs — O(touched), not O(|KB|) — so one allocation serves
// an entire pass. (The matcher's R3 rank aggregation uses a bounded variant
// of the same pattern, matching.aggBoard: its inputs are rows already
// pruned to ≤ K, so a ≤ 2K sparse list replaces the dense array there.)
package graph

import (
	"context"
	"slices"
	"sync"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// Scoreboard is a dense score accumulator over the entity IDs of one KB
// with a sparse touched set. The zero score doubles as the "untouched"
// sentinel, which keeps Add branch-cheap without a generation array — every
// contribution must therefore be strictly positive (true for both users:
// per-token weights and retained β weights are > 0). Reset is O(touched).
// A Scoreboard is not safe for concurrent use; hand each worker its own
// via parallel.ForLocalCtx.
type Scoreboard struct {
	score   []float64
	touched []kb.EntityID
}

// NewScoreboard returns a board over entity IDs [0, n).
func NewScoreboard(n int) *Scoreboard {
	return &Scoreboard{score: make([]float64, n)}
}

// Add accumulates a strictly positive weight onto a candidate.
func (b *Scoreboard) Add(to kb.EntityID, w float64) {
	if b.score[to] == 0 {
		b.touched = append(b.touched, to)
	}
	b.score[to] += w
}

// Has reports whether the board has a slot for the candidate.
func (b *Scoreboard) Has(to kb.EntityID) bool { return uint(to) < uint(len(b.score)) }

// Reset clears the board in O(touched), making it ready for the next
// entity. Forgetting to reset leaks one entity's scores into the next — the
// scratch-reuse property tests exist to catch exactly that.
func (b *Scoreboard) Reset() {
	for _, t := range b.touched {
		b.score[t] = 0
	}
	b.touched = b.touched[:0]
}

// cand is a candidate of the top-K select with its score: the select
// compares scores at every step, so its heap holds them whole, and each kept
// candidate becomes an Edge once, when the row is written.
type cand struct {
	w  float64
	to kb.EntityID
}

// better reports whether a ranks strictly ahead of b in a candidate row:
// the heavier edge first, ties toward the lower entity ID. The order is total
// (no two edges of one row share an ID), which is what makes every selection
// over it order-independent.
func better(a, b cand) bool {
	return a.w > b.w || (a.w == b.w && a.to < b.to)
}

// appendTopK selects the k best candidates of a touched board and appends
// them to dst, ordered by better — the row the map-based reference selects
// from the same sums, without sorting all touched candidates. The first k
// candidates fill a bounded heap whose root is the worst one kept; every
// later candidate is rejected with two compares against the root unless it
// beats it, so the common case costs no heap operation. An insertion sort
// then orders the ≤ k survivors. heapBuf is the reusable heap scratch
// (cap ≥ k); the board is left untouched, callers reset it separately.
func appendTopK(dst []Edge, b *Scoreboard, k int, heapBuf []cand) []Edge {
	if len(b.touched) == 0 || k <= 0 {
		return dst
	}
	h := heapBuf[:0]
	rest := b.touched
	for len(rest) > 0 && len(h) < k {
		h = append(h, cand{b.score[rest[0]], rest[0]})
		siftUp(h, len(h)-1)
		rest = rest[1:]
	}
	if len(rest) > 0 {
		root := h[0]
		for _, to := range rest {
			if c := (cand{b.score[to], to}); better(c, root) {
				h[0] = c
				siftDown(h, 0)
				root = h[0]
			}
		}
	}
	for i := 1; i < len(h); i++ {
		c, j := h[i], i
		for ; j > 0 && better(c, h[j-1]); j-- {
			h[j] = h[j-1]
		}
		h[j] = c
	}
	dst = slices.Grow(dst, len(h))
	for _, c := range h {
		dst = append(dst, NewEdge(c.to, c.w))
	}
	return dst
}

// siftUp and siftDown keep the worst kept candidate at the heap's root.
func siftUp(h []cand, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !better(h[p], h[i]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []cand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && better(h[m], h[l]) {
			m = l
		}
		if r < len(h) && better(h[m], h[r]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// boardScratch is the per-worker scratch of the β and γ passes: one
// scoreboard over the other KB's entity IDs plus the reusable top-K heap
// buffer. With it, a pass allocates nothing per entity. touches, when a pass
// mirrors its count, holds per candidate the number of this worker's rows
// that touched it.
type boardScratch struct {
	board   *Scoreboard
	heap    []cand
	touches []int32
}

func newBoardScratch(n, k int) *boardScratch {
	// A row holds at most one edge per candidate, however large k is.
	return &boardScratch{board: NewScoreboard(n), heap: make([]cand, 0, max(min(k, n), 0))}
}

// appendRow appends the top-k candidates of the accumulated board to dst and
// resets the board for the next entity.
func (sc *boardScratch) appendRow(dst []Edge, k int) []Edge {
	dst = appendTopK(dst, sc.board, k, sc.heap)
	sc.board.Reset()
	return dst
}

// finishRow ends a query kernel's walk: the top-k row of the board, or
// ErrOutOfRange when the walk met a candidate the board has no slot for.
func (sc *boardScratch) finishRow(k int, inRange bool) ([]Edge, error) {
	if !inRange {
		sc.board.Reset()
		return nil, ErrOutOfRange
	}
	return sc.appendRow(nil, k), nil
}

// emitRows computes the candidate rows of n consecutive nodes: fill
// accumulates node i's evidence on the board it is handed, and the top k of
// each board become row i. A row cannot exceed min(k, otherLen) edges, so
// every node writes its row at a fixed stride into one array sized for that
// bound — no allocation per row or per span, whatever the schedule — and one
// serial pass then closes the gaps. reuse is a row set the caller is done
// with; its arrays back the result where they are large enough.
//
// need, when not nil, holds one flag per node; a node whose flag is false
// gets an empty row, and fill is not called for it. A caller that passes
// need streams the rows and hands them back as reuse, so only a result
// computed whole is trimmed to its size.
//
// With mirror set, the second result is Σ_t min(k, rows that touched t) over
// the candidates t: the number of edges the other side's rows hold, when
// the evidence is symmetric and the pass covers every node of its side.
// Each worker counts on its own array, summed once at the end.
func emitRows(ctx context.Context, e *parallel.Engine, n, otherLen, k int, need []bool, reuse Rows[Edge], mirror bool, fill func(board *Scoreboard, i int)) (Rows[Edge], int, error) {
	stride := max(min(k, otherLen), 0)
	rows := Rows[Edge]{Off: slices.Grow(reuse.Off[:0], n+1)[:n+1], Flat: slices.Grow(reuse.Flat[:0], n*stride)[:n*stride]}
	fresh := cap(reuse.Flat) < n*stride
	var (
		mu      sync.Mutex
		touches [][]int32 // one per worker, when mirroring
	)
	err := parallel.ForLocalCtx(ctx, e, n,
		func() *boardScratch {
			sc := newBoardScratch(otherLen, k)
			if mirror {
				sc.touches = make([]int32, otherLen)
				mu.Lock()
				touches = append(touches, sc.touches)
				mu.Unlock()
			}
			return sc
		},
		func(sc *boardScratch, i int) error {
			if need != nil && !need[i] {
				rows.Off[i+1] = 0
				return nil
			}
			fill(sc.board, i)
			if sc.touches != nil {
				for _, t := range sc.board.touched {
					sc.touches[t]++
				}
			}
			at := i * stride
			rows.Off[i+1] = int64(len(sc.appendRow(rows.Flat[at:at:at+stride], k)))
			return nil
		})
	if err != nil {
		return Rows[Edge]{}, 0, err
	}
	rows.Off[0] = 0
	w := int64(0)
	for i := 0; i < n; i++ {
		m := rows.Off[i+1]
		copy(rows.Flat[w:w+m], rows.Flat[i*stride:])
		w += m
		rows.Off[i+1] = w
	}
	rows.Flat = rows.Flat[:w]
	if fresh && need == nil && int(w) < cap(rows.Flat)/2 {
		// Mostly short rows: do not keep the bound's worth of memory alive.
		rows.Flat = slices.Clone(rows.Flat)
	}
	mirrored := 0
	if mirror {
		for t := range otherLen {
			d := 0
			for _, c := range touches {
				d += int(c[t])
			}
			mirrored += min(k, d)
		}
	}
	return rows, mirrored, nil
}
