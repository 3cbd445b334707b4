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
// A pair loaded from KB files is built by a child process — this binary
// started again with the single argument "build-child" — and mapped from the
// snapshot the child writes, so queries never share a processor or a heap
// with a build.
//
// On SIGINT/SIGTERM the server drains: readiness flips immediately,
// in-flight queries finish (bounded by -drain), in-flight builds — those of
// pairs still preloading included — are killed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"minoaner/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == server.BuildChildArg {
		os.Exit(server.BuildChild(os.Stdin, os.Stdout, os.Stderr))
	}
	var (
		addr       = flag.String("addr", "127.0.0.1:7870", "listen address (use :0 for an ephemeral port)")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window for in-flight requests")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeout_ms deadlines")
		maxBody    = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		quiet      = flag.Bool("quiet", false, "suppress per-request access logs")

		pairs []string
	)
	flag.Func("pair", "preload a pair (JSON LoadPairRequest or a .snap path; repeatable)",
		func(v string) error { pairs = append(pairs, v); return nil })
	flag.Parse()

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	self, err := os.Executable()
	exitOn(err)
	srv := server.New(server.Options{
		Addr:           *addr,
		Logger:         logger,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		BuildCommand:   []string{self, server.BuildChildArg},
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

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "minoanerd:", err)
		os.Exit(1)
	}
}
