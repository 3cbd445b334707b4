package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"minoaner/internal/server"
)

// The load generator is an open loop: request i of a step is due at
// start + i/rate whatever happened to the requests before it, as independent
// users would send it. One pacer sleeps to each due time and hands the
// request to a pool of workers, each owning one keep-alive connection. The
// pool is larger than the number of requests ever in flight, so a request
// is late only when the pacer itself woke late or every connection is stuck
// behind a stalled server; either way its latency is measured from the
// moment it was due, which charges it the wait. The clock stops when the last
// byte of the answer is read; the answer is parsed and checked after that.

// sample is one request of an open-loop step.
type sample struct {
	latency time.Duration // due → answer read
	late    time.Duration // due → actually sent
	ok      bool
}

// step is the outcome of one open-loop step.
type step struct {
	rate    float64
	samples []sample
}

// answer is what came back for one request, unparsed.
type answer struct {
	status int
	raw    []byte
	err    error
}

// openLoop issues n requests at rate per second over the given number of
// workers; send makes round trip i on the worker's own connection, and check,
// off the clock, reports whether it was answered correctly. When ctx ends it
// returns early, and the samples not yet issued stay zero: the caller gives
// the run up.
func openLoop(ctx context.Context, rate float64, n, workers int, send func(worker, i int) answer, check func(i int, a answer) bool) step {
	st := step{rate: rate, samples: make([]sample, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	dueAt := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	// Room for every request, so that the pacer never waits for a worker.
	due := make(chan int, n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				sent := time.Now()
				a := send(w, i)
				latency := time.Since(dueAt(i))
				st.samples[i] = sample{latency: latency, late: max(sent.Sub(dueAt(i)), 0), ok: check(i, a)}
			}
		}()
	}
	// The pacer keeps its thread: nanosleep's precision rests on the thread's
	// timer slack, and a thread of its own is never queued behind a worker.
	runtime.LockOSThread()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		sleepUntil(dueAt(i))
		due <- i
	}
	runtime.UnlockOSThread()
	close(due)
	wg.Wait()
	return st
}

// behindLimit is how far behind its schedule a step may end and still count
// as sustained: half the latency limit, so a step that only just keeps up
// with a full queue does not pass.
const behindLimit = latencyLimit / 2

// latencyLimit is the bound on the reported tail latency under which a rate
// counts as met.
const latencyLimit = 2 * time.Millisecond

// behind is the median lateness over the last twentieth of the step: near
// zero when the generator kept its schedule (a stall in mid-step that was
// caught up again does not count), and large when a backlog was still
// growing at the end.
func (st step) behind() time.Duration {
	n := len(st.samples)
	if n == 0 {
		return 0
	}
	last := st.samples[n-max(n/20, 1):]
	late := make([]float64, len(last))
	for i, s := range last {
		late[i] = float64(s.late)
	}
	return time.Duration(median(late))
}

// failed counts the requests that were not answered correctly.
func (st step) failed() int {
	n := 0
	for _, s := range st.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies, in microseconds and ascending, of the
// samples that keep selects (nil keeps all); lateness the same for how late
// each request was sent.
func (st step) latencies(keep func(i int) bool) []float64 {
	out := st.inOrder(keep)
	slices.Sort(out)
	return out
}

func (st step) lateness() []float64 {
	out := make([]float64, len(st.samples))
	for i, s := range st.samples {
		out[i] = micros(s.late)
	}
	slices.Sort(out)
	return out
}

// inOrder returns the selected latencies in the order the requests were due.
func (st step) inOrder(keep func(i int) bool) []float64 {
	out := make([]float64, 0, len(st.samples))
	for i, s := range st.samples {
		if keep == nil || keep(i) {
			out = append(out, micros(s.latency))
		}
	}
	return out
}

// tailWindow is the number of consecutive requests whose tail is taken on
// its own: enough for a p99 with twenty samples beyond it.
const tailWindow = 2000

// windowedTail cuts latencies, given in due order, into windows of about
// tailWindow requests and returns the median of the windows' tails. One
// stalled window (a collection, a hiccup of the host) then moves one value
// of several instead of the result.
func windowedTail(inOrder []float64) (float64, string) {
	n := max(len(inOrder)/tailWindow, 1)
	tails := make([]float64, n)
	var which string
	for w := range n {
		win := slices.Sorted(slices.Values(inOrder[w*len(inOrder)/n : (w+1)*len(inOrder)/n]))
		tails[w], which = tail(win)
	}
	return median(tails), fmt.Sprintf("median of %d windows' %s", n, which)
}

// meets reports whether the step met the latency limit: under one request in
// a thousand failed (a failure misses any limit), the tail is within the
// limit, and no backlog was left growing.
func (st step) meets() bool {
	if len(st.samples) == 0 || st.failed()*1000 >= len(st.samples) {
		return false
	}
	t, _ := windowedTail(st.inOrder(nil))
	return t <= micros(latencyLimit) && st.behind() <= behindLimit
}

// client is the HTTP side of the generator: one keep-alive connection per
// worker against one server, and the request mix of the serving workloads.
type client struct {
	host    string // host:port
	pairID  string
	corpus  []query
	workers []*conn

	// Per-request outcomes beyond what sample holds, indexed like the
	// step's samples and reset by query().
	hit      []bool
	kernelUS []float64
}

// conn is one HTTP/1.1 keep-alive connection, written and read by the
// worker that owns it. net/http's client would put two more goroutines, and
// so two more thread wake-ups, between the worker and the socket; on a small
// virtual machine those wake-ups, not the server, are most of a round trip
// and most of its run-to-run noise.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte
}

// describeEvery makes every fifth request an explicit-description query:
// the 80/20 replay/describe mix.
const describeEvery = 5

func isDescribe(i int) bool { return i%describeEvery == describeEvery-1 }

func newClient(base, pairID string, corpus []query, workers int) *client {
	c := &client{host: strings.TrimPrefix(base, "http://"), pairID: pairID, corpus: corpus}
	for range workers {
		c.workers = append(c.workers, &conn{})
	}
	return c
}

func (c *client) close() {
	for _, w := range c.workers {
		w.close()
	}
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// requestTimeout bounds one round trip; the slowest answers of any workload
// take tens of milliseconds.
const requestTimeout = 30 * time.Second

// do sends one request on the worker's connection, with a JSON body if any,
// and returns the status and the raw answer. A connection that failed is
// dropped, and the next request dials again.
func (c *client) do(ctx context.Context, worker int, method, path string, body []byte) answer {
	k := c.workers[worker]
	status, raw, err := c.roundTrip(ctx, k, method, path, body)
	if err != nil {
		k.close()
	}
	return answer{status, raw, err}
}

// roundTrip writes the request on k, dialling first if k is closed, and reads
// the whole answer.
func (c *client) roundTrip(ctx context.Context, k *conn, method, path string, body []byte) (status int, raw []byte, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if k.c == nil {
		var d net.Dialer
		if k.c, err = d.DialContext(ctx, "tcp", c.host); err != nil {
			return 0, nil, err
		}
		k.br = bufio.NewReader(k.c)
	}
	k.req = fmt.Appendf(k.req[:0], "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.host)
	if body != nil {
		k.req = fmt.Appendf(k.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	k.req = append(append(k.req, "\r\n"...), body...)
	if err := k.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := k.c.Write(k.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, err
}

// send sends corpus query i (replay or describe by position in the mix).
func (c *client) send(ctx context.Context, worker, i int) answer {
	q := c.corpus[i%len(c.corpus)]
	body := q.replay
	if isDescribe(i) {
		body = q.describe
	}
	return c.do(ctx, worker, http.MethodPost, "/v1/pairs/"+c.pairID+"/query", body)
}

// judge checks the answer to corpus query i: 200, parsable, at least one
// candidate. It reports whether the top candidate is the ground-truth partner
// and the kernel time the server stamped on the answer.
func (c *client) judge(i int, a answer) (ok, hit bool, kernelUS float64) {
	if a.err != nil || a.status != http.StatusOK {
		return false, false, 0
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(a.raw, &resp); err != nil || len(resp.Candidates) == 0 {
		return false, false, 0
	}
	return true, resp.Candidates[0].URI == c.corpus[i%len(c.corpus)].want, resp.ElapsedUS
}

// ask is one query outside a step: whether corpus query i was answered.
func (c *client) ask(ctx context.Context, worker, i int) bool {
	ok, _, _ := c.judge(i, c.send(ctx, worker, i))
	return ok
}

// query runs one open-loop step of the request mix for about d at rate.
func (c *client) query(ctx context.Context, rate float64, d time.Duration) step {
	n := max(int(rate*d.Seconds()), 1)
	c.hit = make([]bool, n)
	c.kernelUS = make([]float64, n)
	return openLoop(ctx, rate, n, len(c.workers),
		func(w, i int) answer { return c.send(ctx, w, i) },
		func(i int, a answer) (ok bool) {
			ok, c.hit[i], c.kernelUS[i] = c.judge(i, a)
			return ok
		})
}

// hitRatio is the share of the last step's replay (or describe) requests
// whose top candidate was the ground-truth partner.
func (c *client) hitRatio(st step, describe bool) float64 {
	hits, n := 0, 0
	for i := range st.samples {
		if isDescribe(i) != describe {
			continue
		}
		n++
		if c.hit[i] {
			hits++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

// null runs one open-loop step of GET /healthz on the same connections: the
// floor that transport and the generator itself put under every latency.
func (c *client) null(ctx context.Context, rate float64, d time.Duration) step {
	n := max(int(rate*d.Seconds()), 1)
	return openLoop(ctx, rate, n, len(c.workers),
		func(w, _ int) answer { return c.do(ctx, w, http.MethodGet, "/healthz", nil) },
		func(_ int, a answer) bool { return a.err == nil && a.status == http.StatusOK })
}

// callJSON is one control-plane call of the pair lifecycle, on the first
// worker's connection: the lifecycle runs on a client of its own.
func (c *client) callJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	a := c.do(ctx, 0, method, path, body)
	if a.err != nil {
		return a.err
	}
	if a.status >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, a.status, bytes.TrimSpace(a.raw))
	}
	if out != nil {
		if err := json.Unmarshal(a.raw, out); err != nil {
			return fmt.Errorf("%s %s: unparsable answer: %w", method, path, err)
		}
	}
	return nil
}
