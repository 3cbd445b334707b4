// Command minoanerd is the long-running resolution server: an HTTP/JSON
// service holding a registry of loaded KB pairs whose blocking/statistics
// substrates are built once and shared across all requests — batch Resolve
// as the index build, per-entity queries as the traffic.
//
// Serve:
//
//	minoanerd [-addr 127.0.0.1:7870] [-drain 15s] [-timeout 30s]
//	          [-max-timeout 5m] [-max-body 1048576] [-pair SPEC ...]
//
// Each -pair SPEC (repeatable) preloads one pair at startup. A SPEC is
// either a JSON LoadPairRequest body — e.g.
// '{"id":"r","snapshot":"/data/pair.snap"}' — or a bare path ending in
// .snap, shorthand for a snapshot-sourced pair. Snapshot-sourced pairs are
// memory-mapped and query-ready without a rebuild, so a server restarted
// from snapshots reaches readiness in milliseconds instead of re-running
// every substrate build.
//
// The /v1 API (JSON bodies; errors use {"error":{"code","message"}}):
//
//	POST   /v1/pairs                 load/build a pair (async; poll status)
//	GET    /v1/pairs                 list loaded pairs with build timings
//	GET    /v1/pairs/{id}            one pair's status and timings
//	DELETE /v1/pairs/{id}            unload a pair (aborts an in-flight build)
//	POST   /v1/pairs/{id}/query      resolve one entity description → ranked candidates
//	POST   /v1/pairs/{id}/resolve    batch resolution over the shared substrate
//	GET    /v1/pairs/{id}/entities   E1 URI prefix (load-test corpus)
//	GET    /healthz, /readyz         liveness / readiness
//
// On SIGINT/SIGTERM the server drains: readiness flips immediately,
// in-flight queries finish (bounded by -drain), in-flight builds — those of
// pairs still preloading included — abort.
//
// Load test (against a running server):
//
//	minoanerd -loadtest -target http://127.0.0.1:7870 -pair ID \
//	          [-clients 4] [-queries 2000]
//
// fetches the pair's E1 URIs and hammers the query endpoint with the given
// concurrency, reporting qps and latency percentiles.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"minoaner/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7870", "listen address (use :0 for an ephemeral port)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window for in-flight requests")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeout_ms deadlines")
		maxBody    = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		quiet      = flag.Bool("quiet", false, "suppress per-request access logs")

		loadtest = flag.Bool("loadtest", false, "run the load-test client instead of serving")
		target   = flag.String("target", "http://127.0.0.1:7870", "base URL of the server to load-test")
		clients  = flag.Int("clients", 4, "concurrent load-test clients")
		queries  = flag.Int("queries", 2000, "total load-test requests")

		pairs []string
	)
	flag.Func("pair", "serve: preload a pair (JSON LoadPairRequest or a .snap path; repeatable); loadtest: the pair ID to hammer",
		func(v string) error { pairs = append(pairs, v); return nil })
	flag.Parse()

	if *loadtest {
		if len(pairs) != 1 {
			fmt.Fprintln(os.Stderr, "minoanerd: -loadtest requires exactly one -pair ID")
			os.Exit(2)
		}
		runLoadtest(*target, pairs[0], *clients, *queries)
		return
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	srv := server.New(server.Options{
		Addr:           *addr,
		Logger:         logger,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	// Installed before the first build starts: a signal during a preload must
	// drain like any other, not kill the process by its default action.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	preloaded := make([]*server.Pair, 0, len(pairs))
	for _, raw := range pairs {
		spec, err := parsePairSpec(raw)
		exitOn(err)
		p, _, err := srv.Registry().Load(spec)
		exitOn(err)
		preloaded = append(preloaded, p)
	}

	bound, err := srv.Start()
	exitOn(err)
	// The listen line goes to stdout so harnesses (make serve-smoke) can
	// discover an ephemeral port.
	fmt.Printf("minoanerd: listening on %s\n", bound)
	for _, p := range preloaded {
		select {
		case <-p.Done():
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break // Shutdown below aborts the builds still in flight
		}
		info := srv.Registry().Info(p)
		if info.Status == server.StatusFailed {
			exitOn(fmt.Errorf("preloading pair %s: %s", info.ID, info.Error))
		}
		fmt.Printf("minoanerd: pair %s ready (load %.1fms, prewarm %.1fms)\n",
			info.ID, info.LoadMS, info.PrewarmMS)
	}

	<-ctx.Done()
	stop()
	fmt.Println("minoanerd: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	exitOn(srv.Shutdown(dctx))
	fmt.Println("minoanerd: shutdown complete")
}

// parsePairSpec turns one -pair value into a load request: a JSON body
// verbatim, or a bare *.snap path as snapshot-source shorthand.
func parsePairSpec(raw string) (server.LoadPairRequest, error) {
	var spec server.LoadPairRequest
	if strings.HasPrefix(strings.TrimSpace(raw), "{") {
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			return spec, fmt.Errorf("parsing -pair spec: %w", err)
		}
		return spec, nil
	}
	if strings.HasSuffix(raw, ".snap") {
		spec.Snapshot = raw
		return spec, nil
	}
	return spec, fmt.Errorf("-pair %q is neither a JSON spec nor a .snap path", raw)
}

// runLoadtest fetches the pair's E1 URIs and hammers the query endpoint.
func runLoadtest(target, pairID string, clients, queries int) {
	if pairID == "" {
		fmt.Fprintln(os.Stderr, "minoanerd: -loadtest requires -pair")
		os.Exit(2)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/pairs/%s/entities?limit=0", target, pairID))
	exitOn(err)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	exitOn(err)
	if resp.StatusCode != http.StatusOK {
		exitOn(fmt.Errorf("fetching entities: status %d: %s", resp.StatusCode, body))
	}
	var ents server.EntitiesResponse
	exitOn(json.Unmarshal(body, &ents))
	if len(ents.URIs) == 0 {
		exitOn(fmt.Errorf("pair %s has no E1 entities to query", pairID))
	}
	reqs := make([]server.QueryRequest, len(ents.URIs))
	for i, uri := range ents.URIs {
		reqs[i] = server.QueryRequest{URI: uri}
	}
	res, err := server.LoadTest(context.Background(), target, pairID, reqs, server.LoadOptions{
		Clients: clients,
		Queries: queries,
	})
	fmt.Println("minoanerd loadtest:", res)
	exitOn(err)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "minoanerd:", err)
		os.Exit(1)
	}
}
