package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/server"
	"minoaner/internal/snapshot"
)

// BenchResult is the per-stage wall-clock record of one dataset's pipeline
// run — the data points behind the ROADMAP's performance trajectory. Times
// are the fastest of Runs repetitions, reported per Figure 4 stage.
type BenchResult struct {
	Dataset string `json:"dataset"`
	E1Size  int    `json:"e1_size"`
	E2Size  int    `json:"e2_size"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	// Stage timings in milliseconds (best of Runs, per stage independently).
	// The statistics stage also reports its three sub-stages, and the graph
	// stage its two weighting phases (β incl. name evidence, γ incl. the
	// adjacency merges), so the regression gate can pin the columnar
	// substrates per pass.
	StatisticsMS        float64 `json:"statistics_ms"`
	StatsAttributesMS   float64 `json:"stats_attributes_ms"`
	StatsRelationsMS    float64 `json:"stats_relations_ms"`
	StatsTopNeighborsMS float64 `json:"stats_topneighbors_ms"`
	// Blocking reports its two sub-clocks next to the sum: the columnar
	// name-index build and the token-index build incl. Block Purging.
	BlockingMS      float64 `json:"blocking_ms"`
	BlockingNameMS  float64 `json:"blocking_name_ms"`
	BlockingTokenMS float64 `json:"blocking_token_ms"`
	GraphMS         float64 `json:"graph_ms"`
	GraphBetaMS     float64 `json:"graph_beta_ms"`
	GraphGammaMS    float64 `json:"graph_gamma_ms"`
	MatchingMS      float64 `json:"matching_ms"`
	TotalMS         float64 `json:"total_ms"`
	// PeakHeapMB is the maximum live-heap sample observed during one extra,
	// untimed repetition (see sampleHeapPeak) — the memory trajectory
	// counterpart of the stage timings.
	PeakHeapMB float64 `json:"peak_heap_mb"`
	// Effectiveness, so a perf data point can't silently trade away quality.
	Matches int     `json:"matches"`
	F1      float64 `json:"f1"`
	// ShardRuns holds one entry per requested shard count: the same pipeline
	// under core.ResolveSharded, timed and heap-sampled the same way.
	ShardRuns []ShardRun `json:"shard_runs,omitempty"`
	// WorkerRuns holds one entry per requested extra worker count — by
	// default one data point at workers=GOMAXPROCS next to the 1-core
	// primary run, so the regression gate also watches parallel scaling.
	WorkerRuns []WorkerRun `json:"worker_runs,omitempty"`
	// QueryRuns holds the per-entity query-path data point: latency
	// percentiles of individual QueryEntity calls over a prewarmed
	// substrate — the "build once, query many" counterpart of the batch
	// stage timings.
	QueryRuns []QueryRun `json:"query_runs,omitempty"`
	// LoadRuns holds the served query path: the same prewarmed substrate
	// behind a real minoanerd HTTP server, hammered by the load-test harness
	// at each concurrency level. Where QueryRuns isolates the kernel,
	// LoadRuns adds transport, routing and encoding — the costs a serving
	// deployment actually pays per request.
	LoadRuns []LoadRun `json:"load_runs,omitempty"`
	// SnapshotRuns holds the persisted-substrate data point: the cost of
	// writing the substrate snapshot to disk and the time from a cold
	// mmap-open to the first answered query, against the rebuild path
	// (substrate build + prewarm) a restart without snapshots would pay.
	SnapshotRuns []SnapshotRun `json:"snapshot_runs,omitempty"`
}

// SnapshotRun is one persisted-substrate data point: WriteMS and FileMB
// price the save, OpenMS is the cold OpenSubstrate plus the FIRST
// QueryEntity on the mapping (time-to-first-answer from disk, best of
// reps), RebuildMS the substrate build + prewarm wall the query run of the
// same dataset measured, and SpeedupX their ratio — the warm-start claim
// the regression gate holds the format to.
type SnapshotRun struct {
	WriteMS   float64 `json:"write_ms"`
	FileMB    float64 `json:"file_mb"`
	OpenMS    float64 `json:"open_ms"`
	RebuildMS float64 `json:"rebuild_ms"`
	SpeedupX  float64 `json:"speedup_x"`
}

// LoadRun is one server-path load-test data point: Queries requests from
// Clients concurrent HTTP clients against one shared substrate, reported as
// throughput plus latency percentiles in microseconds.
type LoadRun struct {
	Clients int     `json:"clients"`
	Queries int     `json:"queries"`
	QPS     float64 `json:"qps"`
	P50US   float64 `json:"p50_us"`
	P95US   float64 `json:"p95_us"`
	P99US   float64 `json:"p99_us"`
}

// QueryRun is one query-latency data point of a dataset: Queries sequential
// QueryEntity calls cycling through E1 on one prewarmed substrate, reported
// as latency percentiles in microseconds, next to the two one-time costs a
// query-serving deployment pays up front (the substrate build and the lazy
// query-state construction).
type QueryRun struct {
	Queries     int     `json:"queries"`
	SubstrateMS float64 `json:"substrate_ms"`
	PrewarmMS   float64 `json:"prewarm_ms"`
	P50US       float64 `json:"p50_us"`
	P95US       float64 `json:"p95_us"`
	P99US       float64 `json:"p99_us"`
}

// ShardRun is one sharded-execution data point of a dataset: ResolveSharded
// with Shards E1 shards must reproduce the monolithic matches exactly while
// bounding peak memory, so the record carries both.
type ShardRun struct {
	Shards     int     `json:"shards"`
	TotalMS    float64 `json:"total_ms"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	Matches    int     `json:"matches"`
}

// WorkerRun is one parallel-scaling data point of a dataset: the same
// monolithic pipeline at a different engine size. The gate compares the
// TOTAL time against the baseline entry and requires Matches to equal the
// primary run's (worker-count determinism); the per-stage times are
// recorded for diagnosis only — on a busy CI box individual parallel
// stages jitter too much to gate.
type WorkerRun struct {
	// Workers is the REQUESTED engine size and the gate's matching key; 0
	// means "all cores", kept symbolic so a baseline recorded on one
	// machine still matches a current run on a machine with a different
	// core count. ResolvedWorkers records what the request meant on the
	// recording box (informational only, never compared).
	Workers         int     `json:"workers"`
	ResolvedWorkers int     `json:"resolved_workers,omitempty"`
	StatisticsMS    float64 `json:"statistics_ms"`
	BlockingMS      float64 `json:"blocking_ms"`
	GraphMS         float64 `json:"graph_ms"`
	MatchingMS      float64 `json:"matching_ms"`
	TotalMS         float64 `json:"total_ms"`
	Matches         int     `json:"matches"`
}

// BenchReport is the JSON document `cmd/experiments -bench` emits
// (BENCH_<date>.json): one BenchResult per dataset plus run metadata.
type BenchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Scale      float64       `json:"scale"`
	Results    []BenchResult `json:"results"`
}

// Bench runs the full pipeline reps times on every suite dataset and
// collects per-stage timings (fastest repetition per stage) plus F1 against
// the generated ground truth, and a heap-peak sample from one extra untimed
// repetition. For every entry of shardCounts it additionally benchmarks
// core.ResolveSharded at that shard count (total wall clock, heap peak, and
// the match count, which must equal the monolithic one), and for every
// entry of workerCounts (0 = all cores) the monolithic pipeline at that
// engine size — the parallel-scaling data points.
func (s *Suite) Bench(reps int, shardCounts, workerCounts []int) (*BenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	report := &BenchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      s.opts.ScaleFactor,
	}
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Workers = s.opts.Workers
		r := BenchResult{
			Dataset: name,
			E1Size:  d.K1.Len(),
			E2Size:  d.K2.Len(),
			Workers: runtime.GOMAXPROCS(0),
			Runs:    reps,
		}
		if s.opts.Workers > 0 {
			r.Workers = s.opts.Workers
		}
		best, first, err := resolveBest(reps, func() (*core.Output, error) {
			return core.Resolve(d.K1, d.K2, cfg)
		})
		if err != nil {
			return nil, err
		}
		r.Matches = len(first.Matches)
		pairs := make([]eval.Pair, len(first.Matches))
		for j, m := range first.Matches {
			pairs[j] = m.Pair
		}
		r.F1 = eval.Evaluate(pairs, d.GT).F1
		r.StatisticsMS = ms(best.Statistics)
		r.StatsAttributesMS = ms(best.StatsAttributes)
		r.StatsRelationsMS = ms(best.StatsRelations)
		r.StatsTopNeighborsMS = ms(best.StatsTopNeighbors)
		r.BlockingMS = ms(best.Blocking)
		r.BlockingNameMS = ms(best.BlockingName)
		r.BlockingTokenMS = ms(best.BlockingToken)
		r.GraphMS = ms(best.Graph)
		r.GraphBetaMS = ms(best.GraphBeta)
		r.GraphGammaMS = ms(best.GraphGamma)
		r.MatchingMS = ms(best.Matching)
		r.TotalMS = ms(best.Total)
		peak, err := sampleHeapPeak(func() error {
			_, err := core.Resolve(d.K1, d.K2, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.PeakHeapMB = mb(peak)
		for _, p := range shardCounts {
			sr, err := s.benchSharded(d, cfg, reps, p)
			if err != nil {
				return nil, err
			}
			r.ShardRuns = append(r.ShardRuns, sr)
		}
		for _, w := range workerCounts {
			wr, err := benchWorkers(d, cfg, reps, w)
			if err != nil {
				return nil, err
			}
			r.WorkerRuns = append(r.WorkerRuns, wr)
		}
		qr, sub, err := benchQuery(d, cfg, benchQueryCount)
		if err != nil {
			return nil, err
		}
		r.QueryRuns = append(r.QueryRuns, qr)
		snr, err := benchSnapshot(d, cfg, sub, qr, reps)
		if err != nil {
			return nil, err
		}
		r.SnapshotRuns = append(r.SnapshotRuns, snr)
		lrs, err := benchLoad(d, sub, benchLoadClients)
		if err != nil {
			return nil, err
		}
		r.LoadRuns = lrs
		report.Results = append(report.Results, r)
	}
	return report, nil
}

// benchQueryCount is the minimum number of QueryEntity calls behind a
// QueryRun's percentiles — enough samples for a meaningful p99.
const benchQueryCount = 1000

// benchLoadClients are the concurrency levels of the server-path load runs,
// and benchLoadQueryCount the request total at each level.
var benchLoadClients = []int{4, 16}

const benchLoadQueryCount = 2000

// benchQuery measures the per-entity query path: BuildSubstrate once,
// prewarm the lazy query state, then time at least minQueries individual
// QueryEntity calls cycling through E1 (queries prebuilt outside the timed
// region, so a sample is the query path alone). Single-threaded on purpose —
// the percentiles describe one query's latency, not throughput. The prewarmed
// substrate is returned so the load runs can reuse it instead of building a
// third one.
func benchQuery(d *datagen.Dataset, cfg core.Config, minQueries int) (QueryRun, *core.Substrate, error) {
	ctx := context.Background()
	qr := QueryRun{}
	start := time.Now()
	sub, err := core.BuildSubstrate(ctx, d.K1, d.K2, cfg)
	if err != nil {
		return qr, nil, err
	}
	qr.SubstrateMS = ms(time.Since(start))
	start = time.Now()
	if err := sub.PrewarmQueries(ctx); err != nil {
		return qr, nil, err
	}
	qr.PrewarmMS = ms(time.Since(start))

	n := d.K1.Len()
	if n == 0 {
		return qr, nil, fmt.Errorf("experiments: dataset %s has an empty E1", d.Profile.Name)
	}
	queries := make([]core.EntityQuery, n)
	for i := range queries {
		queries[i] = core.QueryFromEntity(d.K1, kb.EntityID(i))
	}
	total := minQueries
	if rem := total % n; rem != 0 {
		total += n - rem // whole passes over E1, so every entity weighs equally
	}
	// One untimed warm-up pass populates the scratch pool.
	if _, err := core.QueryEntity(ctx, sub, queries[0], cfg); err != nil {
		return qr, nil, err
	}
	lat := make([]time.Duration, 0, total)
	for i := 0; i < total; i++ {
		q := queries[i%n]
		t0 := time.Now()
		if _, err := core.QueryEntity(ctx, sub, q, cfg); err != nil {
			return qr, nil, err
		}
		lat = append(lat, time.Since(t0))
	}
	slices.Sort(lat)
	qr.Queries = total
	qr.P50US = percentileUS(lat, 0.50)
	qr.P95US = percentileUS(lat, 0.95)
	qr.P99US = percentileUS(lat, 0.99)
	return qr, sub, nil
}

// benchSnapshot measures the persisted-substrate path. The substrate the
// query run prewarmed is written to a snapshot once (write wall, file
// size); then, reps times, the file is opened cold — a fresh mmap, no state
// shared with the writing substrate — and one QueryEntity answered on the
// mapping, keeping the fastest open→first-answer wall. RebuildMS reuses
// the query run's substrate + prewarm clocks so SpeedupX compares the two
// ways a restart can reach the same query-ready state.
func benchSnapshot(d *datagen.Dataset, cfg core.Config, sub *core.Substrate, qr QueryRun, reps int) (SnapshotRun, error) {
	ctx := context.Background()
	sr := SnapshotRun{RebuildMS: qr.SubstrateMS + qr.PrewarmMS}
	dir, err := os.MkdirTemp("", "minoaner-bench-snap-")
	if err != nil {
		return sr, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
	path := filepath.Join(dir, "pair.snap")
	start := time.Now()
	if err := snapshot.WriteSubstrateFile(path, sub); err != nil {
		return sr, err
	}
	sr.WriteMS = ms(time.Since(start))
	fi, err := os.Stat(path)
	if err != nil {
		return sr, err
	}
	sr.FileMB = mb(uint64(fi.Size()))
	q := core.QueryFromEntity(d.K1, 0)
	// Warm-up open + GC before the timed reps, mirroring resolveBest: the
	// query benchmark that just ran leaves the pacer sized to its garbage,
	// which otherwise taxes the first opens with collections they didn't
	// cause.
	warm, err := snapshot.OpenSubstrate(path)
	if err != nil {
		return sr, err
	}
	if _, err := core.QueryEntity(ctx, warm.Substrate(), q, cfg); err != nil {
		warm.Close() //nolint:errcheck // the query error is the one to report
		return sr, err
	}
	if err := warm.Close(); err != nil {
		return sr, err
	}
	runtime.GC()
	for i := 0; i < max(reps, 1); i++ {
		start = time.Now()
		loaded, err := snapshot.OpenSubstrate(path)
		if err != nil {
			return sr, err
		}
		if _, err := core.QueryEntity(ctx, loaded.Substrate(), q, cfg); err != nil {
			loaded.Close() //nolint:errcheck // the query error is the one to report
			return sr, err
		}
		open := ms(time.Since(start))
		if err := loaded.Close(); err != nil {
			return sr, err
		}
		if i == 0 || open < sr.OpenMS {
			sr.OpenMS = open
		}
	}
	if sr.OpenMS > 0 {
		sr.SpeedupX = sr.RebuildMS / sr.OpenMS
	}
	return sr, nil
}

// benchLoad measures the served query path: the prewarmed substrate is
// registered in a real server.Server on a loopback port and closed-loop
// clients replay E1 through POST /v1/pairs/{id}/query at each concurrency
// level. One substrate serves every run — the server's contract — so the
// data points differ only in client parallelism.
func benchLoad(d *datagen.Dataset, sub *core.Substrate, clients []int) ([]LoadRun, error) {
	srv := server.New(server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if _, err := srv.Registry().AddSubstrate("bench", server.LoadPairRequest{E1: "mem:e1", E2: "mem:e2"}, sub); err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	url := "http://" + addr.String() + "/v1/pairs/bench/query"
	bodies := make([][]byte, d.K1.Len())
	for i := range bodies {
		if bodies[i], err = json.Marshal(server.QueryRequest{URI: d.K1.Entity(kb.EntityID(i)).URI}); err != nil {
			return nil, err
		}
	}
	runs := make([]LoadRun, 0, len(clients))
	for _, c := range clients {
		run, err := loadRun(url, bodies, c, benchLoadQueryCount)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// loadRun posts queries requests, cycling through bodies, from clients
// goroutines that each wait for an answer before sending the next. Bodies
// are marshaled by the caller, so a sample is transport plus kernel. Any
// failed request fails the run.
func loadRun(url string, bodies [][]byte, clients, queries int) (LoadRun, error) {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	defer client.CloseIdleConnections()
	var (
		next atomic.Int64 // the requests handed out so far
		wg   sync.WaitGroup
	)
	lat := make([]time.Duration, queries)
	errs := make([]error, clients)
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[c] == nil {
				i := int(next.Add(1)) - 1
				if i >= queries {
					return
				}
				t0 := time.Now()
				errs[c] = postQuery(client, url, bodies[i%len(bodies)])
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return LoadRun{}, fmt.Errorf("load run at %d clients: %w", clients, err)
	}
	slices.Sort(lat)
	return LoadRun{
		Clients: clients,
		Queries: queries,
		QPS:     float64(queries) / elapsed.Seconds(),
		P50US:   percentileUS(lat, 0.50),
		P95US:   percentileUS(lat, 0.95),
		P99US:   percentileUS(lat, 0.99),
	}, nil
}

// postQuery issues one query request and drains the response; any status but
// 200 is an error carrying the envelope body.
func postQuery(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// percentileUS reads the p-th percentile (nearest-rank) of sorted latencies
// in microseconds.
func percentileUS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	idx = max(0, min(idx, len(sorted)-1))
	return float64(sorted[idx].Nanoseconds()) / 1000
}

// benchWorkers times the monolithic pipeline at one worker count (0 = all
// cores), keeping the fastest of reps per stage. The requested count is the
// record's identity; the resolved count is informational.
func benchWorkers(d *datagen.Dataset, cfg core.Config, reps, workers int) (WorkerRun, error) {
	cfg.Workers = workers
	wr := WorkerRun{Workers: workers, ResolvedWorkers: workers}
	if workers == 0 {
		wr.ResolvedWorkers = runtime.GOMAXPROCS(0)
	}
	best, first, err := resolveBest(reps, func() (*core.Output, error) {
		return core.Resolve(d.K1, d.K2, cfg)
	})
	if err != nil {
		return wr, err
	}
	wr.Matches = len(first.Matches)
	wr.StatisticsMS = ms(best.Statistics)
	wr.BlockingMS = ms(best.Blocking)
	wr.GraphMS = ms(best.Graph)
	wr.MatchingMS = ms(best.Matching)
	wr.TotalMS = ms(best.Total)
	return wr, nil
}

// benchSharded times core.ResolveSharded at one shard count (best of reps)
// and heap-samples one extra repetition.
func (s *Suite) benchSharded(d *datagen.Dataset, cfg core.Config, reps, shards int) (ShardRun, error) {
	sr := ShardRun{Shards: shards}
	best, first, err := resolveBest(reps, func() (*core.Output, error) {
		return core.ResolveSharded(context.Background(), d.K1, d.K2, cfg, shards)
	})
	if err != nil {
		return sr, err
	}
	sr.Matches = len(first.Matches)
	sr.TotalMS = ms(best.Total)
	peak, err := sampleHeapPeak(func() error {
		_, err := core.ResolveSharded(context.Background(), d.K1, d.K2, cfg, shards)
		return err
	})
	if err != nil {
		return sr, err
	}
	sr.PeakHeapMB = mb(peak)
	return sr, nil
}

// resolveBest runs one untimed warm-up repetition and an explicit GC, then
// fn reps times, returning the field-wise minimum of the per-stage timings —
// the best-of-reps rule every bench record shares — plus the warm-up's
// output (for match counts and F1; the pipeline is deterministic, so every
// repetition produces the same output). The warm-up is what makes every
// record measure STEADY state: the primary run used to execute straight
// after dataset generation with the GC pacer still sized to generation
// garbage, which inflated its blocking_ms several-fold against the
// worker-run record of the very same configuration later in the suite.
func resolveBest(reps int, fn func() (*core.Output, error)) (core.Timings, *core.Output, error) {
	first, err := fn()
	if err != nil {
		return core.Timings{}, nil, err
	}
	runtime.GC()
	var best core.Timings
	for i := 0; i < reps; i++ {
		out, err := fn()
		if err != nil {
			return best, nil, err
		}
		if i == 0 {
			best = out.Timings
			continue
		}
		minStages(&best, out.Timings)
	}
	return best, first, nil
}

// minStages lowers every stage of dst to its minimum with t.
func minStages(dst *core.Timings, t core.Timings) {
	keep := func(d *time.Duration, v time.Duration) {
		if v < *d {
			*d = v
		}
	}
	keep(&dst.Statistics, t.Statistics)
	keep(&dst.StatsAttributes, t.StatsAttributes)
	keep(&dst.StatsRelations, t.StatsRelations)
	keep(&dst.StatsTopNeighbors, t.StatsTopNeighbors)
	keep(&dst.Blocking, t.Blocking)
	keep(&dst.BlockingName, t.BlockingName)
	keep(&dst.BlockingToken, t.BlockingToken)
	keep(&dst.Graph, t.Graph)
	keep(&dst.GraphBeta, t.GraphBeta)
	keep(&dst.GraphGamma, t.GraphGamma)
	keep(&dst.Matching, t.Matching)
	keep(&dst.Total, t.Total)
}

// ms converts a duration to the report's millisecond unit.
func ms(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// sampleHeapPeak runs fn while a background sampler polls the live heap
// ("/memory/classes/heap/objects:bytes" from runtime/metrics, ~1 kHz) and
// returns the maximum sample minus the pre-run floor. The run is untimed, so
// GC is temporarily made aggressive (GOGC≈20): with the default pacing the
// heap floats up to ~2× the live set between collections and the sample
// would mostly measure collector laziness, not the pipeline's working set.
// The sampler necessarily misses sub-millisecond spikes, making this a
// trajectory metric, not a bound.
func sampleHeapPeak(fn func() error) (uint64, error) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	floor := read()
	peak := floor
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			if v := read(); v > peak {
				peak = v
			}
			time.Sleep(time.Millisecond)
		}
	}()
	err := fn()
	close(done)
	<-finished
	if v := read(); v > peak {
		peak = v
	}
	if err != nil {
		return 0, err
	}
	if peak < floor {
		return 0, nil
	}
	return peak - floor, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func (r *BenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatBench renders the report as an aligned text table, with one indented
// row per sharded run under its dataset.
func FormatBench(r *BenchReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline stage timings (ms, best of %s; %s, GOMAXPROCS=%d, scale=%g)\n",
		plural(r.Results), r.GoVersion, r.GOMAXPROCS, r.Scale)
	fmt.Fprintf(&sb, "%-18s %9s %9s %9s %9s %9s %9s %9s %7s\n",
		"dataset", "stats", "blocking", "graph", "matching", "total", "peakMB", "matches", "F1")
	for _, x := range r.Results {
		fmt.Fprintf(&sb, "%-18s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9d %7.3f\n",
			x.Dataset, x.StatisticsMS, x.BlockingMS, x.GraphMS, x.MatchingMS, x.TotalMS,
			x.PeakHeapMB, x.Matches, x.F1)
		for _, sr := range x.ShardRuns {
			fmt.Fprintf(&sb, "  %-16s %49.1f %9.1f %9d\n",
				fmt.Sprintf("shards=%d", sr.Shards), sr.TotalMS, sr.PeakHeapMB, sr.Matches)
		}
		for _, wr := range x.WorkerRuns {
			fmt.Fprintf(&sb, "  %-16s %9.1f %9.1f %9.1f %9.1f %9.1f %19d\n",
				"workers="+workersLabel(wr.Workers, wr.ResolvedWorkers), wr.StatisticsMS,
				wr.BlockingMS, wr.GraphMS, wr.MatchingMS, wr.TotalMS, wr.Matches)
		}
		for _, qr := range x.QueryRuns {
			fmt.Fprintf(&sb, "  %-16s p50=%.0fµs p95=%.0fµs p99=%.0fµs (substrate %.1fms + prewarm %.1fms)\n",
				fmt.Sprintf("query×%d", qr.Queries), qr.P50US, qr.P95US, qr.P99US,
				qr.SubstrateMS, qr.PrewarmMS)
		}
		for _, sn := range x.SnapshotRuns {
			fmt.Fprintf(&sb, "  %-16s write=%.1fms file=%.1fMB open→query=%.2fms rebuild=%.1fms (%.0f× faster)\n",
				"snapshot", sn.WriteMS, sn.FileMB, sn.OpenMS, sn.RebuildMS, sn.SpeedupX)
		}
		for _, lr := range x.LoadRuns {
			fmt.Fprintf(&sb, "  %-16s qps=%.0f p50=%.0fµs p95=%.0fµs p99=%.0fµs (%d queries over HTTP)\n",
				fmt.Sprintf("serve c=%d", lr.Clients), lr.QPS, lr.P50US, lr.P95US, lr.P99US, lr.Queries)
		}
	}
	return sb.String()
}

// workersLabel renders a requested worker count, keeping the symbolic
// "all cores" request readable alongside what it resolved to.
func workersLabel(requested, resolved int) string {
	if requested == 0 {
		if resolved > 0 {
			return fmt.Sprintf("all(%d)", resolved)
		}
		return "all"
	}
	return fmt.Sprint(requested)
}

func plural(rs []BenchResult) string {
	if len(rs) > 0 && rs[0].Runs == 1 {
		return "1 run"
	}
	if len(rs) > 0 {
		return fmt.Sprintf("%d runs", rs[0].Runs)
	}
	return "0 runs"
}
