package parallel

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := Sequential().Workers(); got != 1 {
		t.Errorf("Sequential().Workers() = %d, want 1", got)
	}
}

func TestPartitionsCoverExactly(t *testing.T) {
	f := func(n uint8, w uint8) bool {
		e := New(int(w%16) + 1)
		spans := e.Partitions(int(n))
		covered := 0
		prev := 0
		for _, s := range spans {
			if s.Lo != prev || s.Hi <= s.Lo {
				return false
			}
			covered += s.Len()
			prev = s.Hi
		}
		return covered == int(n) && (int(n) == 0) == (len(spans) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionsBalanced(t *testing.T) {
	e := New(4)
	spans := e.Partitions(10)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	sizes := []int{spans[0].Len(), spans[1].Len(), spans[2].Len(), spans[3].Len()}
	if !reflect.DeepEqual(sizes, []int{3, 3, 2, 2}) {
		t.Errorf("sizes = %v, want [3 3 2 2]", sizes)
	}
}

func TestForVisitsEachOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 32} {
		e := New(w)
		n := 1000
		var visits [1000]int32
		forAll(t, e, n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

func TestForZeroAndOne(t *testing.T) {
	e := New(8)
	called := 0
	forAll(t, e, 0, func(int) { called++ })
	if called != 0 {
		t.Error("ForCtx(0) must not call fn")
	}
	forAll(t, e, 1, func(i int) { called += i + 1 })
	if called != 1 {
		t.Error("ForCtx(1) must call fn(0) once")
	}
}

func TestMapOrder(t *testing.T) {
	e := New(5)
	got := Map(e, 10, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSpansPartitionOrder(t *testing.T) {
	e := New(4)
	got := MapSpans(e, 100, func(s Span) int { return s.Lo })
	if !reflect.DeepEqual(got, []int{0, 25, 50, 75}) {
		t.Errorf("MapSpans results out of partition order: %v", got)
	}
}

func TestConcurrentBarrier(t *testing.T) {
	for _, e := range []*Engine{New(4), Sequential()} {
		var a, b, c atomic.Int32
		err := e.ConcurrentCtx(t.Context(),
			func(context.Context) error { a.Store(1); return nil },
			func(context.Context) error { b.Store(2); return nil },
			func(context.Context) error { c.Store(3); return nil },
		)
		if err != nil || a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
			t.Errorf("workers=%d: ConcurrentCtx = %v, did not run all stages before returning", e.Workers(), err)
		}
		if err := e.ConcurrentCtx(t.Context(), func(context.Context) error { a.Store(10); return nil }); err != nil || a.Load() != 10 {
			t.Errorf("workers=%d: ConcurrentCtx single stage = %v", e.Workers(), err)
		}
	}
}

// forAll is ForCtx under the test's context with a callback that never
// fails.
func forAll(t *testing.T, e *Engine, n int, fn func(i int)) {
	t.Helper()
	err := e.ForCtx(t.Context(), n, func(i int) error {
		fn(i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: ForCtx over any n touches the sum correctly for any worker count.
func TestForSumProperty(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		size := int(n % 2048)
		e := New(int(w%8) + 1)
		var sum atomic.Int64
		forAll(t, e, size, func(i int) { sum.Add(int64(i)) })
		return sum.Load() == int64(size)*int64(size-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
