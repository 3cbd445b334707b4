package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stub serves GET / after the delay its handler picks per request.
func stub(t *testing.T, delay func(n int64) time.Duration) (*client, func()) {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(delay(n.Add(1)))
		io.WriteString(w, "ok")
	}))
	return newClient(srv.URL, "", nil, 1), srv.Close
}

func get(c *client) func(worker, i int) answer {
	return func(worker, _ int) answer {
		return c.do(context.Background(), worker, http.MethodGet, "/", nil)
	}
}

func ok(_ int, a answer) bool { return a.err == nil && a.status == http.StatusOK }

// One connection, one 50 ms stall: the requests that fell due during the
// stall were sent late, and their latency must include the wait.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	const stall = 50 * time.Millisecond
	c, done := stub(t, func(n int64) time.Duration {
		if n == 100 {
			return stall
		}
		return 0
	})
	defer done()
	defer c.close()

	st := openLoop(context.Background(), 1000, 400, 1, get(c), ok)
	if f := st.failed(); f != 0 {
		t.Fatalf("%d of %d requests failed", f, len(st.samples))
	}
	// Request 99 (0-based) stalled; request 110 was due 11 ms into the stall
	// and could not be sent before it ended.
	behind := st.samples[110]
	if behind.late < stall/2 || behind.latency < behind.late {
		t.Errorf("request due during the stall: late %v, latency %v; want it sent ≥ %v late and its latency to include that",
			behind.late, behind.latency, stall/2)
	}
	if before := st.samples[50]; before.latency > stall/2 {
		t.Errorf("request before the stall took %v", before.latency)
	}
	if p99 := percentile(st.lateness(), 0.99); p99 <= 0 {
		t.Errorf("lateness p99 is %v µs after a stall; want it non-zero", p99)
	}
	// 1000/s is far under what the stub sustains, so the queue drains again.
	if b := st.behind(); b > behindLimit {
		t.Errorf("step ended %v behind although the stall was long over", b)
	}
}

// A handler that needs 5 ms on a single connection sustains 200/s; at
// 1000/s the backlog grows to the end, and the step must not pass.
func TestOpenLoopReportsARateItCannotSustain(t *testing.T) {
	c, done := stub(t, func(int64) time.Duration { return 5 * time.Millisecond })
	defer done()
	defer c.close()

	st := openLoop(context.Background(), 1000, 300, 1, get(c), ok)
	if f := st.failed(); f != 0 {
		t.Fatalf("%d of %d requests failed", f, len(st.samples))
	}
	if b := st.behind(); b < 100*behindLimit {
		t.Errorf("step ended only %v behind; a backlog of about a second was expected", b)
	}
	if st.meets() {
		t.Error("a step with a growing backlog met the latency limit")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9], n=4) == [1.0, 3.5, 6.0]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9})
	if q1 != 1 || q3 != 6 {
		t.Errorf("quartiles of 3 1 4 1 5 9 = %v, %v; Python gives 1.0, 6.0", q1, q3)
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	asc := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		want string
	}{{5, "max"}, {100, "p90"}, {200, "p95"}, {1000, "p99"}} {
		if _, got := tail(asc(c.n)); got != c.want {
			t.Errorf("tail of %d samples is the %s, want the %s", c.n, got, c.want)
		}
	}
	if v, _ := tail(asc(1000)); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	if m := median([]float64{4, 1, 3, 2}); math.Abs(m-2.5) > 1e-12 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}
