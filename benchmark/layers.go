package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/server"
	"minoaner/internal/snapshot"
	"minoaner/internal/stats"
)

// ladder is the rates of the traced run's open-loop steps, in requests per
// second; the highest that meets latencyLimit is server.max_rate_rps.
// BENCHMARK.json declares server.rate.<rps>.{p50_us,p99_us,ok_ratio} for each.
var ladder = []int{1000, 2000, 4000, 6000, 8000}

// nullSink is the TripleSink that parses and throws away: what is left of
// ingest when no KB is built.
type nullSink struct{}

func (nullSink) AddEntity(string) kb.EntityID           { return 0 }
func (nullSink) AddLiteral(kb.EntityID, string, string) {}
func (nullSink) AddObject(kb.EntityID, string, string)  {}

// eachFile opens the two N-Triples files of p in turn.
func eachFile(p *pair, f func(name string, r io.Reader) error) error {
	for i, path := range []string{p.e1, p.e2} {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f(fmt.Sprintf("E%d", i+1), file)
		file.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// queryCount is how many queries of the corpus each in-process latency
// figure of the traced run rests on.
const queryCount = 5000

// runTraced is the traced run: it replays the stage composition of the
// pipeline through the layers' public functions at one worker, each call in
// a span, then exercises substrate, snapshot and handler the same way, and
// finally puts a server child under the rate ladder and one pair lifecycle.
// The pair is the one the workload's children build: the churn pair on
// serve-churn, the main pair elsewhere.
func runTraced(ctx context.Context, e *env, w workload, o options, r *report) error {
	spec := w.main
	if w.churn != nil {
		spec = *w.churn
	}
	p, err := writePair(ctx, e.dir, "main", spec.scaled(o.scale), o.seed)
	if err != nil {
		return err
	}
	if err := o.damage("e2", p.e2); err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("%s/seed%d", w.name, o.seed))
	defer func() {
		if o.spans != nil {
			*o.spans = append(*o.spans, tr.spans...)
		}
	}()

	// The CLI's answer on the same files is what the replay must reproduce.
	cliOut := filepath.Join(e.dir, "cli.tsv")
	cli, err := e.runCLI(ctx, cliOut, "-e1", p.e1, "-e2", p.e2, "-quiet")
	if err != nil {
		return err
	}
	cliMatches, err := readMatches(cliOut)
	if err != nil {
		return err
	}
	r.ops(1, 0)
	r.set("cli.cold_wall_s", seconds(cli.wall))
	r.set("cli.cold_cpu_s", seconds(cli.cpu))

	k1, k2, matches, err := replayPipeline(ctx, tr, p, r)
	if err != nil {
		return err
	}
	got, want := digest(matches), digest(cliMatches)
	same := got == want
	r.check(same, "the traced replay found %d matches (digest %s), the CLI %d (digest %s)",
		len(matches), got[:16], len(cliMatches), want[:16])
	score := f1(matches, p.gt)
	r.check(score >= minF1, "F1 %.4f is under the floor %.2f", score, minF1)
	r.ops(1, btoi(!same))

	snap := filepath.Join(e.dir, "traced.snap")
	if err := replayServing(ctx, tr, p, k1, k2, snap, r); err != nil {
		return err
	}
	// The KBs and the substrate are garbage from here on; collect them now,
	// not beside the server the generator is about to load.
	debug.FreeOSMemory()
	return tracedServer(ctx, e, p, snap, o.seconds, r)
}

// replayPipeline loads the two files the way the CLI and the server's
// registry do — each KB with dictionaries of its own — and runs statistics,
// blocking, graph and matching in the order core.buildSequential and
// core.resolveWith do. It returns the KBs and the matches as URI pairs.
func replayPipeline(ctx context.Context, tr *tracer, p *pair, r *report) (k1, k2 *kb.KB, matches [][2]string, err error) {
	eng := parallel.New(1)
	cfg := core.DefaultConfig()
	cfg.Workers = 1

	err = tr.in("kb.parse", func() error {
		return eachFile(p, func(_ string, f io.Reader) error {
			_, err := kb.ReadNTriples(nullSink{}, f, true)
			return err
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	err = tr.in("kb.stream_ingest", func() error {
		return eachFile(p, func(name string, f io.Reader) error {
			_, _, err := kb.StreamNTriples(name, f, true)
			return err
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}

	heap0 := heapMB()
	var (
		names1, names2 *stats.NameLookup
		top1, top2     [][]kb.EntityID
		nameBlocks     *blocking.Collection
		tokenBlocks    *blocking.Collection
		tokenIx        *blocking.TokenIndex
		g              *graph.Graph
		res            *matching.Result
	)
	kbs := make([]*kb.KB, 0, 2)
	err = tr.in("kb.load", func() error {
		return eachFile(p, func(name string, f io.Reader) error {
			k, _, err := kb.LoadNTriples(name, f, true)
			kbs = append(kbs, k)
			return err
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	k1, k2 = kbs[0], kbs[1]
	r.set("kb.heap_mb", heapMB()-heap0)
	r.set("kb.triples", float64(k1.Triples()+k2.Triples()))
	r.set("kb.entities", float64(k1.Len()+k2.Len()))
	r.set("kb.distinct_tokens", float64(k1.TokenDict().Len()+k2.TokenDict().Len()))

	// The same resolution as one untraced call, once before and once after
	// the staged replay so that neither gets the warmer heap: the difference
	// is what tracing, and composing the stages by hand, costs.
	matchCount := -1
	untraced := func() error {
		runtime.GC()
		return tr.in("core.resolve_total", func() error {
			out, err := core.ResolveContext(ctx, k1, k2, cfg)
			if err != nil {
				return err
			}
			if matchCount >= 0 && len(out.Matches) != matchCount {
				return fmt.Errorf("core.ResolveContext found %d matches, then %d", matchCount, len(out.Matches))
			}
			matchCount = len(out.Matches)
			return nil
		})
	}
	if err := untraced(); err != nil {
		return nil, nil, nil, err
	}
	runtime.GC()
	err = tr.in("resolve", func() error {
		err := tr.in("stats.attributes", func() error {
			a1, err := stats.NameAttributesCtx(ctx, eng, k1, cfg.NameK)
			if err != nil {
				return err
			}
			a2, err := stats.NameAttributesCtx(ctx, eng, k2, cfg.NameK)
			names1, names2 = stats.NewNameLookup(k1, a1), stats.NewNameLookup(k2, a2)
			return err
		})
		if err != nil {
			return err
		}
		var ranks1, ranks2 []int32
		err = tr.in("stats.relations", func() error {
			ri1, err := stats.RelationImportancesCtx(ctx, eng, k1)
			if err != nil {
				return err
			}
			ri2, err := stats.RelationImportancesCtx(ctx, eng, k2)
			ranks1, ranks2 = stats.RelationRanks(k1, ri1), stats.RelationRanks(k2, ri2)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.in("stats.topneighbors", func() error {
			var err error
			if top1, err = stats.TopNeighborsRanksCtx(ctx, eng, k1, ranks1, cfg.RelN); err != nil {
				return err
			}
			top2, err = stats.TopNeighborsRanksCtx(ctx, eng, k2, ranks2, cfg.RelN)
			return err
		})
		if err != nil {
			return err
		}
		err = tr.in("blocking.name", func() error {
			ix, err := blocking.NewNameIndexLookupsCtx(ctx, eng, names1, names2)
			if err != nil {
				return err
			}
			nameBlocks = ix.Collection()
			tr.count("blocks", float64(nameBlocks.Len()))
			return nil
		})
		if err != nil {
			return err
		}
		err = tr.in("blocking.token", func() error {
			var err error
			if tokenIx, err = blocking.NewTokenIndexCtx(ctx, eng, k1, k2); err != nil {
				return err
			}
			purged := 0
			if budget := blocking.ComparisonBudget(k1.Len(), k2.Len(), cfg.MaxBlockFraction); budget > 0 {
				tokenIx, purged = tokenIx.PurgeAbove(budget)
			}
			tr.count("blocks", float64(tokenIx.Live()))
			tr.count("purged", float64(purged))
			tr.count("comparisons", float64(tokenIx.TotalComparisons()))
			r.set("blocking.token_blocks", float64(tokenIx.Live()))
			r.set("blocking.purged_blocks", float64(purged))
			r.set("blocking.comparisons", float64(tokenIx.TotalComparisons()))
			return nil
		})
		if err != nil {
			return err
		}
		// The CLI's Resolve materializes the token-block collection too
		// (Config.OmitTokenBlocks is off by default).
		if err := tr.in("blocking.collection", func() error {
			tokenBlocks = tokenIx.Collection()
			return nil
		}); err != nil {
			return err
		}
		err = tr.in("graph.build", func() error {
			var tm graph.Timings
			var err error
			g, tm, err = graph.BuildTimedCtx(ctx, eng, graph.Input{
				K1: k1, K2: k2, NameBlocks: nameBlocks, TokenBlocks: tokenBlocks, TokenIndex: tokenIx,
				Top1: top1, Top2: top2, K: cfg.TopK,
			})
			if err != nil {
				return err
			}
			// β and γ are the one split composed inside a layer: read it from
			// the timings the layer already returns.
			tr.count("beta_s", seconds(tm.Beta))
			tr.count("gamma_s", seconds(tm.Gamma))
			tr.count("edges", float64(g.Edges()))
			r.set("graph.beta_s", seconds(tm.Beta))
			r.set("graph.gamma_s", seconds(tm.Gamma))
			r.set("graph.edges", float64(g.Edges()))
			return nil
		})
		if err != nil {
			return err
		}
		return tr.in("matching.run", func() error {
			var err error
			mc := matching.DefaultConfig()
			mc.Theta = cfg.Theta
			if res, err = matching.RunCtx(ctx, eng, g, k1, k2, mc); err != nil {
				return err
			}
			tr.count("matches", float64(len(res.Matches)))
			tr.count("removed_by_r4", float64(res.RemovedByR4))
			return nil
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}

	parse, load := tr.self("kb.parse"), tr.self("kb.load")
	r.set("kb.parse_s", parse)
	r.set("kb.build_s", load-parse)
	r.set("kb.stream_ingest_s", tr.self("kb.stream_ingest"))
	r.set("kb.ingest_mb_per_s", float64(p.bytes)/mb/load)
	stages := []string{"stats.attributes", "stats.relations", "stats.topneighbors",
		"blocking.name", "blocking.token", "blocking.collection", "graph.build", "matching.run"}
	var staged float64
	for _, s := range stages {
		r.set(s+"_s", tr.self(s))
		staged += tr.self(s)
	}
	r.set("blocking.name_blocks", float64(nameBlocks.Len()))
	r.set("matching.matches", float64(len(res.Matches)))
	r.set("matching.removed_by_r4", float64(res.RemovedByR4))
	r.set("trace.pipeline_s", load+staged)

	if err := untraced(); err != nil {
		return nil, nil, nil, err
	}
	r.check(matchCount == len(res.Matches), "core.ResolveContext found %d matches, the staged replay %d", matchCount, len(res.Matches))
	total := tr.self("core.resolve_total") / 2
	r.set("core.resolve_total_s", total)
	r.set("trace.overhead_pct", 100*(staged-total)/total)
	r.note("traced pipeline %.3f s: ingest %.0f%%, γ %.0f%%; staged resolve %.3f s against %.3f s as one untraced call (mean of two)",
		load+staged, 100*load/(load+staged), 100*r.Metrics["graph.gamma_s"].Value/(load+staged), staged, total)

	matches = make([][2]string, len(res.Matches))
	for i, m := range res.Matches {
		matches[i] = [2]string{k1.URI(m.Pair.E1), k2.URI(m.Pair.E2)}
	}
	return k1, k2, matches, nil
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

// replayServing exercises what a server does with a pair — build the
// substrate, prewarm, answer queries, persist and reopen — and the HTTP
// handler without a socket, leaving the snapshot at snap.
func replayServing(ctx context.Context, tr *tracer, p *pair, k1, k2 *kb.KB, snap string, r *report) error {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	var sub *core.Substrate
	err := tr.in("core.build_substrate", func() (err error) {
		sub, err = core.BuildSubstrate(ctx, k1, k2, cfg)
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.in("core.resolve_with", func() error {
		_, err := core.ResolveWith(ctx, sub, cfg)
		return err
	}); err != nil {
		return err
	}
	if err := tr.in("core.prewarm", func() error { return sub.PrewarmQueries(ctx) }); err != nil {
		return err
	}
	r.set("core.build_substrate_s", tr.self("core.build_substrate"))
	r.set("core.resolve_with_s", tr.self("core.resolve_with"))
	r.set("core.prewarm_s", tr.self("core.prewarm"))

	// The corpus the server legs send, as the kernel sees it: the statements
	// of a describe request converted the way server.entityQuery does.
	n := min(queryCount, len(p.corpus))
	replays := make([]core.EntityQuery, n)
	describes := make([]core.EntityQuery, n)
	for i, q := range p.corpus[:n] {
		var rq, dq server.QueryRequest
		if err := json.Unmarshal(q.replay, &rq); err != nil {
			return err
		}
		if err := json.Unmarshal(q.describe, &dq); err != nil {
			return err
		}
		replays[i] = core.QueryFromEntity(k1, k1.Lookup(rq.URI))
		describes[i].URI = dq.URI
		for _, a := range dq.Attrs {
			describes[i].Attrs = append(describes[i].Attrs, kb.AttributeValue{Attribute: a.Attribute, Value: a.Value})
		}
		for _, o := range dq.Objects {
			describes[i].Objects = append(describes[i].Objects, core.QueryObject{Predicate: o.Predicate, Object: o.Object})
		}
	}
	timeEach := func(qs []core.EntityQuery, s *core.Substrate) ([]float64, error) {
		us := make([]float64, len(qs))
		for i, q := range qs {
			t0 := time.Now()
			if _, err := core.QueryEntity(ctx, s, q, cfg); err != nil {
				return nil, err
			}
			us[i] = micros(time.Since(t0))
		}
		slices.Sort(us)
		return us, nil
	}
	err = tr.in("core.query", func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		us, err := timeEach(replays, sub)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		dus, err := timeEach(describes, sub)
		if err != nil {
			return err
		}
		r.set("core.query_p50_us", percentile(us, 0.5))
		r.set("core.query_p99_us", percentile(us, 0.99))
		r.set("core.describe_p50_us", percentile(dus, 0.5))
		r.set("core.query_allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(len(replays)))
		tr.count("queries", float64(len(us)+len(dus)))
		return nil
	})
	if err != nil {
		return err
	}

	if err := tr.in("snapshot.write", func() error { return snapshot.WriteSubstrateFile(snap, sub) }); err != nil {
		return err
	}
	st, err := os.Stat(snap)
	if err != nil {
		return err
	}
	r.set("snapshot.write_s", tr.self("snapshot.write"))
	r.set("snapshot.write_mb_per_s", float64(st.Size())/mb/tr.self("snapshot.write"))
	var loaded *snapshot.Loaded
	t0 := time.Now()
	if err := tr.in("snapshot.open", func() (err error) {
		loaded, err = snapshot.OpenSubstrate(snap)
		return err
	}); err != nil {
		return err
	}
	if _, err := core.QueryEntity(ctx, loaded.Substrate(), replays[0], cfg); err != nil {
		return err
	}
	r.set("snapshot.open_first_query_ms", millis(time.Since(t0)))
	r.set("snapshot.open_s", tr.self("snapshot.open"))
	if err := loaded.Close(); err != nil {
		return err
	}
	image, err := os.ReadFile(snap)
	if err != nil {
		return err
	}
	if err := tr.in("snapshot.read", func() error {
		_, err := snapshot.ReadSubstrate(image)
		return err
	}); err != nil {
		return err
	}
	r.set("snapshot.read_s", tr.self("snapshot.read"))

	return tr.in("server.handler", func() error { return replayHandler(sub, p, n, r) })
}

// replayHandler drives the routed /v1 handler on a recorder, no socket, and
// times JSON decode and encode of the wire types on their own.
func replayHandler(sub *core.Substrate, p *pair, n int, r *report) error {
	srv := server.New(server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	if _, err := srv.Registry().AddSubstrate("main", server.LoadPairRequest{}, sub); err != nil {
		return err
	}
	h := srv.Handler()
	var handler, decode, encode []float64
	for i, q := range p.corpus[:n] {
		body := q.replay
		if isDescribe(i) {
			body = q.describe
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/pairs/main/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, micros(time.Since(t0)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
		}

		var qr server.QueryRequest
		t0 = time.Now()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&qr); err != nil {
			return err
		}
		decode = append(decode, micros(time.Since(t0)))

		var resp server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		t0 = time.Now()
		if err := json.NewEncoder(io.Discard).Encode(&resp); err != nil {
			return err
		}
		encode = append(encode, micros(time.Since(t0)))
	}
	r.set("server.handler_p50_us", median(handler))
	r.set("server.decode_us", median(decode))
	r.set("server.encode_us", median(encode))
	return nil
}

// tracedServer puts a server child, warm-started from snap, under the null
// step and the rate ladder, then runs one pair lifecycle on it. The time d
// is shared evenly between the steps.
func tracedServer(ctx context.Context, e *env, p *pair, snap string, d time.Duration, r *report) error {
	s, err := serve(ctx, e, server.LoadPairRequest{Snapshot: snap}, p.corpus)
	if err != nil {
		return err
	}
	each := d / time.Duration(len(ladder)+1)
	null := s.cl.null(ctx, queryRate, each)
	r.ops(len(null.samples), null.failed())
	r.set("server.http_null_p50_us", percentile(null.latencies(nil), 0.5))

	var maxRate, lateP99 float64
	hits, dhits, replays, describes := 0.0, 0.0, 0, 0
	for _, rps := range ladder {
		st := s.cl.query(ctx, float64(rps), each)
		r.ops(len(st.samples), st.failed())
		lat := st.latencies(nil)
		name := fmt.Sprintf("server.rate.%d.", rps)
		r.set(name+"p50_us", percentile(lat, 0.5))
		r.set(name+"p99_us", percentile(lat, 0.99))
		r.set(name+"ok_ratio", 1-float64(st.failed())/float64(len(st.samples)))
		nd := len(st.samples) / describeEvery
		hits += s.cl.hitRatio(st, false) * float64(len(st.samples)-nd)
		dhits += s.cl.hitRatio(st, true) * float64(nd)
		replays, describes = replays+len(st.samples)-nd, describes+nd
		if st.meets() {
			maxRate = float64(rps)
			lateP99 = max(lateP99, percentile(st.lateness(), 0.99))
		}
		if rps == queryRate {
			describe := st.latencies(isDescribe)
			r.set("server.describe_p50_us", percentile(describe, 0.5))
			r.set("server.describe_p99_us", percentile(describe, 0.99))
			kernel := slices.Clone(s.cl.kernelUS)
			slices.Sort(kernel)
			r.set("server.kernel_p50_us", percentile(kernel, 0.5))
		}
		r.note("%d/s: p50 %.0f µs, p99 %.0f µs, %d of %d failed, ended %v behind, limit met: %t",
			rps, percentile(lat, 0.5), percentile(lat, 0.99), st.failed(), len(st.samples), st.behind(), st.meets())
	}
	r.set("server.max_rate_rps", maxRate)
	r.set("server.gen_late_p99_us", lateP99)
	r.set("server.top1_hit_ratio", hits/float64(replays))
	r.set("server.describe_hit_ratio", dhits/float64(describes))
	r.check(hits/float64(replays) >= minReplayHits, "top candidate is the true partner in %.4f of replay queries", hits/float64(replays))
	r.check(dhits/float64(describes) >= minDescribeHit, "top candidate is the true partner in %.4f of describe queries", dhits/float64(describes))

	lc := newClient(s.srv.base, "cycle", p.corpus, 1)
	c, err := lc.lifecycle(ctx, p, filepath.Join(e.dir, "cycle.snap"))
	lc.close()
	if err != nil {
		return s.abort(fmt.Errorf("pair lifecycle: %w", err))
	}
	r.ops(4, 0)
	r.set("server.pair_load_ms", c.info.LoadMS)
	r.set("server.pair_build_ms", c.info.BuildMS)
	r.set("server.pair_prewarm_ms", c.info.PrewarmMS)
	r.set("server.pair_build_s", seconds(c.build))
	r.set("server.pair_open_s", seconds(c.open))
	if _, err := s.stop(); err != nil {
		return err
	}
	return ctx.Err()
}
