package parallel

import (
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
		e.For(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
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
	e.For(0, func(int) { called++ })
	if called != 0 {
		t.Error("For(0) must not call fn")
	}
	e.For(1, func(i int) { called += i + 1 })
	if called != 1 {
		t.Error("For(1) must call fn(0) once")
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
	e := New(4)
	var a, b, c atomic.Int32
	e.Concurrent(
		func() { a.Store(1) },
		func() { b.Store(2) },
		func() { c.Store(3) },
	)
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Error("Concurrent did not run all stages before returning")
	}
	e.Concurrent(func() { a.Store(10) })
	if a.Load() != 10 {
		t.Error("Concurrent single stage")
	}
}

// groupBy is GroupByCtx under the test's context.
func groupBy[K comparable, V any](t *testing.T, e *Engine, n int, emit func(i int, yield func(K, V))) map[K][]V {
	t.Helper()
	out, err := GroupByCtx(t.Context(), e, n, emit)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// GroupByCtx must produce sequential order regardless of worker count.
func TestGroupByDeterministic(t *testing.T) {
	n := 500
	reference := groupBy(t, Sequential(), n, emitMod7)
	for _, w := range []int{2, 3, 8, 16} {
		got := groupBy(t, New(w), n, emitMod7)
		if !reflect.DeepEqual(got, reference) {
			t.Fatalf("GroupByCtx with %d workers differs from sequential", w)
		}
	}
}

func emitMod7(i int, yield func(int, int)) {
	yield(i%7, i)
	if i%2 == 0 {
		yield(100+i%3, i)
	}
}

func TestGroupByEmpty(t *testing.T) {
	got := groupBy(t, New(4), 0, func(i int, yield func(string, int)) { yield("x", i) })
	if len(got) != 0 {
		t.Errorf("GroupByCtx(0 rows) = %v, want empty", got)
	}
}

// Property: For over any n touches the sum correctly for any worker count.
func TestForSumProperty(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		size := int(n % 2048)
		e := New(int(w%8) + 1)
		var sum atomic.Int64
		e.For(size, func(i int) { sum.Add(int64(i)) })
		return sum.Load() == int64(size)*int64(size-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
