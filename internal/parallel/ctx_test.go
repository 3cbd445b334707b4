package parallel

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestChunksCoverExactly(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		e := New(int(w%16) + 1)
		spans := e.Chunks(int(n % 4096))
		covered, prev := 0, 0
		for _, s := range spans {
			if s.Lo != prev || s.Hi <= s.Lo {
				return false
			}
			covered += s.Len()
			prev = s.Hi
		}
		return covered == int(n%4096) && (int(n%4096) == 0) == (len(spans) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkedEngineViews(t *testing.T) {
	e := New(4)
	c := e.Chunked()
	if c == e {
		t.Error("Chunked() must return a distinct dynamic view")
	}
	if c.Workers() != e.Workers() {
		t.Error("Chunked() must preserve the worker count")
	}
	if c.Chunked() != c {
		t.Error("Chunked() of a chunked view must be itself")
	}
	// The base engine must stay on static partitioning.
	if got := MapSpans(e, 100, func(s Span) int { return s.Lo }); len(got) != 4 {
		t.Errorf("base engine produced %d spans for n=100, want 4 static partitions", len(got))
	}
	if got := MapSpans(c, 100, func(s Span) int { return s.Lo }); len(got) != len(c.Chunks(100)) {
		t.Error("chunked view did not use chunk partitioning")
	}
}

func TestChunkedForVisitsEachOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32} {
		e := New(w).Chunked()
		n := 1000
		var visits [1000]int32
		e.For(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

// The dynamic scheduler must preserve GroupByCtx's sequential value order
// for any worker count, even though chunk boundaries differ per engine.
func TestGroupByChunkedDeterministic(t *testing.T) {
	n := 500
	reference := groupBy(t, Sequential(), n, emitMod7)
	for _, w := range []int{1, 2, 3, 8, 16} {
		got := groupBy(t, New(w).Chunked(), n, emitMod7)
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("chunked GroupByCtx with %d workers differs from sequential", w)
		}
	}
}

func TestMapChunkedOrder(t *testing.T) {
	e := New(5).Chunked()
	got := Map(e, 333, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []*Engine{New(4), New(4).Chunked(), Sequential()} {
		called := atomic.Int32{}
		err := e.ForCtx(ctx, 100, func(int) error {
			called.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("ForCtx on cancelled ctx = %v, want context.Canceled", err)
		}
		if called.Load() != 0 {
			t.Errorf("ForCtx ran %d iterations under a cancelled context", called.Load())
		}
	}
}

func TestForCtxFirstErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	for _, e := range []*Engine{Sequential(), New(4), New(4).Chunked()} {
		err := e.ForCtx(context.Background(), 1000, func(i int) error {
			if i == 137 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("ForCtx = %v, want sentinel error", err)
		}
	}
}

// An error in one chunk must stop the claiming loop: later chunks are never
// started once cancellation is observed.
func TestForSpansCtxErrorStopsClaiming(t *testing.T) {
	e := New(2).Chunked()
	sentinel := errors.New("early failure")
	var started atomic.Int32
	err := e.ForSpansCtx(context.Background(), 10_000, func(s Span) error {
		if started.Add(1) == 1 {
			return sentinel
		}
		// Give the failing span time to cancel before the next claim.
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n := started.Load(); int(n) >= len(e.Chunks(10_000)) {
		t.Errorf("all %d chunks ran despite an early error", n)
	}
}

func TestMapCtxDiscardsPartialResultsOnError(t *testing.T) {
	e := New(3)
	out, err := MapCtx(context.Background(), e, 50, func(i int) (int, error) {
		if i == 0 {
			return 0, errors.New("fail")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Errorf("MapCtx = (%v, %v), want (nil, error)", out, err)
	}
}

func TestConcurrentCtxFirstErrorCancelsSiblings(t *testing.T) {
	e := New(4)
	sentinel := errors.New("stage failed")
	var siblingSawCancel atomic.Bool
	err := e.ConcurrentCtx(context.Background(),
		func(context.Context) error { return sentinel },
		func(sc context.Context) error {
			select {
			case <-sc.Done():
				siblingSawCancel.Store(true)
				return sc.Err()
			case <-time.After(5 * time.Second):
				return errors.New("sibling never cancelled")
			}
		},
	)
	if !errors.Is(err, sentinel) {
		t.Fatalf("ConcurrentCtx = %v, want first stage error", err)
	}
	if !siblingSawCancel.Load() {
		t.Error("sibling stage did not observe cancellation")
	}
}

func TestConcurrentCtxParentCancellation(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.ConcurrentCtx(ctx, func(context.Context) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("ConcurrentCtx on cancelled parent = %v, want context.Canceled", err)
	}
}

func TestGroupByCtxPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(4).Chunked()
	if _, err := GroupByCtx(ctx, e, 100, func(i int, yield func(int, int)) { yield(i, i) }); !errors.Is(err, context.Canceled) {
		t.Errorf("GroupByCtx = %v, want context.Canceled", err)
	}
}

func TestForCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := New(8).ForCtx(ctx, 10, func(int) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("ForCtx past deadline = %v, want context.DeadlineExceeded", err)
	}
}

// Mid-run parent cancellation must surface ctx.Err even when no task fails.
func TestForSpansCtxMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New(2).Chunked()
	var once atomic.Bool
	err := e.ForSpansCtx(ctx, 10_000, func(s Span) error {
		if once.CompareAndSwap(false, true) {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancellation = %v, want context.Canceled", err)
	}
}
