package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"minoaner/internal/server"
)

const (
	// queryRate and churnRate are the fixed rates of the two serving
	// workloads: 2000/s is a quarter of what the server sustains on the
	// reference box, 1000/s leaves the builds of serve-churn room to run.
	queryRate = 2000
	churnRate = 1000
	// warmStarts is how many times serve-query starts the server from the
	// snapshot; the last one serves the load. One start takes 45 to 70 ms
	// within a run, so the median of a few moves by 5% on its own.
	warmStarts = 21
	// coldStarts is how many times serve-query starts the server on the
	// N-Triples files. One start of four seconds meets a hiccup of the host
	// in one run of three to ten; the median of three rarely does.
	coldStarts = 3
	// pollBuild and pollOpen are how often the lifecycle asks whether a pair
	// is ready: a build takes seconds, and polling it harder would load the
	// server it shares; opening a snapshot takes milliseconds.
	pollBuild = 2 * time.Millisecond
	pollOpen  = 250 * time.Microsecond
	// connections is how many keep-alive connections, each with one worker,
	// the generator holds. Independent users do not wait for each other, so
	// there must be more connections than requests ever in flight: 1000/s at
	// the 50 ms tail of serve-churn keeps 50 busy. An idle worker costs a
	// sleeping thread.
	connections = 64
)

// serving is a server child with the pair "main" loaded and a generator
// pointed at it.
type serving struct {
	srv *serverChild
	cl  *client
	// ready is how long exec → pair ready → first correct answer took.
	ready time.Duration
}

// serve execs the server with main loaded from spec and returns once it has
// answered one query of the corpus correctly.
func serve(ctx context.Context, e *env, spec server.LoadPairRequest, corpus []query) (*serving, error) {
	spec.ID = "main"
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	srv, err := e.startServer(ctx, "-pair", string(arg))
	if err != nil {
		return nil, err
	}
	s := &serving{srv: srv}
	if _, err := srv.waitLine(ctx, "pair main ready"); err != nil {
		return nil, s.abort(err)
	}
	s.cl = newClient(srv.base, "main", corpus, connections)
	if !s.cl.ask(ctx, 0, 0) {
		return nil, s.abort(fmt.Errorf("the first query after start-up was not answered"))
	}
	s.ready = time.Since(srv.started)
	return s, nil
}

// abort stops the server on an error path and folds what it printed into
// err.
func (s *serving) abort(err error) error {
	if _, serr := s.stop(); serr != nil {
		return fmt.Errorf("%w (%v)", err, serr)
	}
	return err
}

func (s *serving) stop() (usage, error) {
	if s.cl != nil {
		s.cl.close()
	}
	return s.srv.stop()
}

// bringUp is the set-up both serving workloads share: generate the pair,
// start the server on the N-Triples files the way an operator first would,
// have it persist the snapshot, and stop it, the given number of times. It
// returns how long each start took from exec to the first correct answer, in
// seconds.
func bringUp(ctx context.Context, e *env, spec pairSpec, o options, r *report, starts int) (p *pair, snap string, cold []float64, err error) {
	if p, err = writePair(ctx, e.dir, "main", spec.scaled(o.scale), o.seed); err != nil {
		return nil, "", nil, err
	}
	if err := o.damage("e2", p.e2); err != nil {
		return nil, "", nil, err
	}
	snap = filepath.Join(e.dir, "main.snap")
	for range starts {
		s, err := serve(ctx, e, server.LoadPairRequest{E1: p.e1, E2: p.e2, SaveSnapshot: snap}, p.corpus)
		if err != nil {
			return nil, "", nil, err
		}
		if _, err := s.stop(); err != nil {
			return nil, "", nil, err
		}
		cold = append(cold, seconds(s.ready))
		r.ops(1, 0)
	}
	r.note("pair: %d entities, %d triples, %.1f MB of N-Triples", p.entities, p.triples, float64(p.bytes)/mb)
	size, err := syncFile(snap)
	if err != nil {
		return nil, "", nil, err
	}
	r.set("snapshot_file_mb", float64(size)/mb)
	return p, snap, cold, o.damage("snapshot", snap)
}

// reportLoad turns one step of the request mix into the latency, accuracy
// and failure figures every serving workload reports.
func reportLoad(r *report, cl *client, st step) {
	replay := st.latencies(func(i int) bool { return !isDescribe(i) })
	describe := st.latencies(isDescribe)
	t, which := windowedTail(st.inOrder(func(i int) bool { return !isDescribe(i) }))
	r.set("latency_p50_ms", percentile(replay, 0.5)/1000)
	hits, dhits := cl.hitRatio(st, false), cl.hitRatio(st, true)
	r.set("accuracy_ratio", hits)
	r.ops(len(st.samples), st.failed())
	r.check(st.failed() == 0, "%d of %d requests failed", st.failed(), len(st.samples))
	r.check(hits >= minReplayHits, "top candidate is the true partner in %.4f of replay queries, under the floor %.2f", hits, minReplayHits)
	r.check(dhits >= minDescribeHit, "top candidate is the true partner in %.4f of describe queries, under the floor %.2f", dhits, minDescribeHit)
	if st.behind() > behindLimit {
		// Not a wrong answer, but the latencies above are those of an
		// overloaded server: say so next to them.
		r.note("WARNING: the run ended %v behind its schedule: %.0f requests/s were not sustained", st.behind(), st.rate)
	}
	late, _ := tail(st.lateness())
	r.note("%.0f requests/s open loop: %d replay queries (tail %.0f µs, the %s) and %d describe queries (p50 %.0f µs, top-1 %.4f); generator lateness tail %.0f µs",
		st.rate, len(replay), t, which, len(describe), percentile(describe, 0.5), dhits, late)
}

// reportServer records what the server child under load cost. Its CPU time
// is a note, not a metric: see README.md, "What had to give".
func reportServer(r *report, u usage, answered int) {
	r.set("peak_rss_mb", u.rssMB)
	r.note("the server's whole life cost %.2f s CPU, %.2f s per 10,000 answered requests", seconds(u.cpu), seconds(u.cpu)/float64(answered)*10000)
}

// runServeQuery measures a server warm-started from a snapshot under a
// fixed open-loop rate of the 80/20 replay/describe mix.
func runServeQuery(ctx context.Context, e *env, w workload, o options, r *report) error {
	t0 := time.Now()
	p, snap, cold, err := bringUp(ctx, e, w.main, o, r, coldStarts)
	if err != nil {
		return err
	}
	r.set("setup_s", seconds(time.Since(t0)))
	r.set("cold_build_s", median(cold))

	defer e.keepAwake(ctx, r)()
	start := time.Now()
	var ready []float64
	var s *serving
	for i := range warmStarts {
		if s, err = serve(ctx, e, server.LoadPairRequest{Snapshot: snap}, p.corpus); err != nil {
			return err
		}
		ready = append(ready, seconds(s.ready))
		r.ops(1, 0)
		if i < warmStarts-1 {
			if _, err := s.stop(); err != nil {
				return err
			}
		}
	}
	r.set("warm_start_s", median(ready))

	load := s.cl.query(ctx, queryRate, max(o.seconds-time.Since(start), time.Second))
	u, err := s.stop()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	reportLoad(r, s.cl, load)
	reportServer(r, u, len(load.samples)-load.failed())
	r.note("%d cold starts (%.2f s), %d warm starts (%.3f–%.3f s)", coldStarts, cold, warmStarts, slices.Min(ready), slices.Max(ready))
	return nil
}

// runServeChurn measures the same server and mix at a lower fixed rate
// while a second pair is built from N-Triples, unloaded, opened from its
// snapshot and unloaded again, over and over, beside the queries.
func runServeChurn(ctx context.Context, e *env, w workload, o options, r *report) error {
	t0 := time.Now()
	p, snap, _, err := bringUp(ctx, e, w.main, o, r, 1)
	if err != nil {
		return err
	}
	churn, err := writePair(ctx, e.dir, "churn", w.churn.scaled(o.scale), o.seed)
	if err != nil {
		return err
	}
	s, err := serve(ctx, e, server.LoadPairRequest{Snapshot: snap}, p.corpus)
	if err != nil {
		return err
	}
	r.set("setup_s", seconds(time.Since(t0)))

	defer e.keepAwake(ctx, r)()
	churnSnap := filepath.Join(e.dir, "churn.snap")
	lc := newClient(s.srv.base, "churn", churn.corpus, 1) // the lifecycle's own connection
	defer lc.close()
	done := make(chan struct{})
	var cycles []cycle
	var lerr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			c, err := lc.lifecycle(ctx, churn, churnSnap)
			if err != nil {
				lerr = err
				return
			}
			cycles = append(cycles, c)
		}
	}()
	load := s.cl.query(ctx, churnRate, o.seconds)
	close(done)
	<-finished
	u, err := s.stop()
	if err != nil {
		return err
	}
	if lerr != nil {
		return fmt.Errorf("pair lifecycle: %w", lerr)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var builds, opens []float64
	for _, c := range cycles {
		builds, opens = append(builds, seconds(c.build)), append(opens, seconds(c.open))
	}
	r.ops(4*len(cycles), 0) // two loads and two unloads each
	r.set("cold_build_s", median(builds))
	r.set("warm_start_s", median(opens))
	st, err := os.Stat(churnSnap)
	if err != nil {
		return err
	}
	r.set("snapshot_file_mb", float64(st.Size())/mb)
	reportLoad(r, s.cl, load)
	reportServer(r, u, len(load.samples)-load.failed())
	r.note("%d pair lifecycle cycles of %d entities beside the queries", len(cycles), churn.entities)
	return nil
}

// cycle is one pass of the pair lifecycle.
type cycle struct {
	build time.Duration // POST from N-Triples with save_snapshot → ready
	open  time.Duration // POST from that snapshot → ready and answering
	info  server.PairInfo
}

// lifecycle loads the pair from its N-Triples files (persisting the
// snapshot), unloads it, loads it again from the snapshot, checks that it
// answers, and unloads it.
func (c *client) lifecycle(ctx context.Context, p *pair, snap string) (cycle, error) {
	var out cycle
	var err error
	if out.build, out.info, err = c.load(ctx, server.LoadPairRequest{ID: c.pairID, E1: p.e1, E2: p.e2, SaveSnapshot: snap}); err != nil {
		return out, err
	}
	if err := c.unload(ctx); err != nil {
		return out, err
	}
	start := time.Now()
	if _, _, err = c.load(ctx, server.LoadPairRequest{ID: c.pairID, Snapshot: snap}); err != nil {
		return out, err
	}
	if !c.ask(ctx, 0, 0) {
		return out, fmt.Errorf("pair %s opened from its snapshot did not answer a query", c.pairID)
	}
	out.open = time.Since(start)
	return out, c.unload(ctx)
}

// load posts the pair and polls until it is ready.
func (c *client) load(ctx context.Context, spec server.LoadPairRequest) (time.Duration, server.PairInfo, error) {
	start := time.Now()
	var info server.PairInfo
	if err := c.callJSON(ctx, http.MethodPost, "/v1/pairs", spec, &info); err != nil {
		return 0, info, err
	}
	every := pollBuild
	if spec.Snapshot != "" {
		every = pollOpen
	}
	for info.Status == server.StatusBuilding {
		sleepUntil(time.Now().Add(every))
		if err := c.callJSON(ctx, http.MethodGet, "/v1/pairs/"+spec.ID, nil, &info); err != nil {
			return 0, info, err
		}
	}
	if info.Status != server.StatusReady {
		return 0, info, fmt.Errorf("pair %s: %s: %s", spec.ID, info.Status, info.Error)
	}
	return time.Since(start), info, nil
}

func (c *client) unload(ctx context.Context) error {
	return c.callJSON(ctx, http.MethodDelete, "/v1/pairs/"+c.pairID, nil, nil)
}
