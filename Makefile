# Developer entry points. CI runs the same steps (see .github/workflows/ci.yml).

SCALE ?= 0.5
REPS  ?= 3
# The primary bench run is pinned to one core so data points are comparable
# across machines and over time; PAR_WORKERS adds extra monolithic data
# points at other engine sizes (0 = all cores), so the records — and the
# regression gate — also watch parallel scaling, not just 1-core speed. The
# default sweep records the {1,2,4,8} scaling curve of the overlapped
# substrate build per dataset.
BENCH_WORKERS ?= 1
PAR_WORKERS   ?= 1,2,4,8
# bench-check compares against the committed baseline, so its scale, shard
# counts and worker counts must match the ones the baseline was recorded
# with. The tolerance is deliberately loose: per-stage wall-clock on shared
# CI runners routinely swings ~2× between runs, and the gate exists to
# catch order-of-magnitude algorithmic blowups, not scheduler jitter.
CHECK_SCALE  ?= 0.25
CHECK_SHARDS ?= 1,8
TOLERANCE    ?= 3.0

.PHONY: build test race race-overlap fmt vet bench-module-check fuzz-smoke lint cover bench bench-test smoke smoke-examples serve-smoke bench-check bench-baseline profile

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# race-overlap exercises the overlapped substrate build and the concurrent
# γ sides of graph construction under the race detector at an explicit workers=2
# engine (the smallest size where the removed barriers matter), repeated so
# goroutine interleavings vary.
race-overlap:
	go test -race -count=2 -run 'Overlap' ./internal/core ./internal/graph

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# bench-module-check vets and tests the benchmark, a module of its own that
# root `go test ./...` does not descend into although it imports
# minoaner/internal/... (-short skips its minutes-long all-workloads smoke).
bench-module-check:
	go -C benchmark vet ./...
	go -C benchmark test -short ./...

# fuzz-smoke runs each fuzz target — the N-Triples reader, the string table
# behind the dictionaries, the snapshot loader — for ten seconds on top of
# its committed corpus.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadNTriples$$' -fuzztime 10s ./internal/kb
	go test -run '^$$' -fuzz '^FuzzInterner$$' -fuzztime 10s ./internal/kb
	go test -run '^$$' -fuzz '^FuzzOpenSubstrate$$' -fuzztime 10s ./internal/snapshot

# lint mirrors the CI lint job; requires golangci-lint on PATH.
lint:
	golangci-lint run ./...

# cover writes the race-enabled coverage profile CI uploads as an artifact.
cover:
	go test -race -covermode=atomic -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -n 1

# bench emits BENCH_<date>.json with per-stage wall-clock timings for every
# Table-1 preset — the perf trajectory data points the ROADMAP asks for —
# measured at 1 core, plus a workers=GOMAXPROCS data point per dataset.
bench:
	go run ./cmd/experiments -bench -scale $(SCALE) -reps $(REPS) -shards $(CHECK_SHARDS) \
		-workers $(BENCH_WORKERS) -parworkers $(PAR_WORKERS)

# bench-test runs the Go benchmark suite (tables, figures, stages, ablations).
bench-test:
	go test -bench . -run '^$$' -benchmem .

# smoke is the fast CI variant: one small preset, one repetition, plus a
# CLI round trip through the per-entity query path (-query, both output
# formats) on a generated dataset, and a snapshot round trip: the substrate
# is persisted with -save-snapshot, reloaded with -snapshot, and the two
# query paths must emit byte-identical candidates JSON.
smoke:
	go test -run '^$$' -bench '^BenchmarkPipelineRestaurant$$' -benchtime 1x .
	go run ./cmd/experiments -bench -datasets Restaurant -reps 1 -benchout /tmp/bench-smoke.json
	go run ./cmd/datagen -preset Restaurant -scale 0.2 -out /tmp/minoaner-query-smoke
	go run ./cmd/minoaner -e1 /tmp/minoaner-query-smoke/e1.nt -e2 /tmp/minoaner-query-smoke/e2.nt \
		-query "$$(head -1 /tmp/minoaner-query-smoke/gt.tsv | cut -f1)"
	go run ./cmd/minoaner -e1 /tmp/minoaner-query-smoke/e1.nt -e2 /tmp/minoaner-query-smoke/e2.nt \
		-save-snapshot /tmp/minoaner-query-smoke/pair.snap \
		-query "$$(head -1 /tmp/minoaner-query-smoke/gt.tsv | cut -f1)" -json -quiet \
		> /tmp/minoaner-query-smoke/q-build.json
	go run ./cmd/minoaner -snapshot /tmp/minoaner-query-smoke/pair.snap \
		-query "$$(head -1 /tmp/minoaner-query-smoke/gt.tsv | cut -f1)" -json -quiet \
		> /tmp/minoaner-query-smoke/q-snap.json
	cmp /tmp/minoaner-query-smoke/q-build.json /tmp/minoaner-query-smoke/q-snap.json

# serve-smoke exercises the real minoanerd binary end to end: build both
# binaries, serve a generated dataset, load a pair, query it in both request
# formats, byte-compare the candidate rows against `cmd/minoaner -query
# -json`, require 200 queries beside the build of a second pair — a child
# process of the server, looked for under /proc — to keep a median under 5 ms
# at one processor, then SIGTERM and assert a clean drain; a second server is
# sent SIGTERM while it is still preloading a pair. Gated behind the env var
# so plain `go test ./...` stays hermetic.
serve-smoke:
	MINOANER_SERVE_SMOKE=1 go test -run '^TestServe(Smoke|TermDuringPreload)$$' -count=1 -v .

# smoke-examples builds and runs every example program end to end (they are
# self-contained and exit non-zero on broken invariants).
smoke-examples:
	@set -e; for d in examples/*/; do echo "== $$d"; go run ./$$d >/dev/null; done

# bench-check is the CI benchmark-regression gate: re-measure at the
# baseline's scale and fail on a >$(TOLERANCE)× per-stage regression (or an
# F1/determinism break) against the committed BENCH_baseline.json.
bench-check:
	go run ./cmd/experiments -bench -scale $(CHECK_SCALE) -reps $(REPS) -shards $(CHECK_SHARDS) \
		-workers $(BENCH_WORKERS) -parworkers $(PAR_WORKERS) \
		-benchout /tmp/bench-current.json -check BENCH_baseline.json -tolerance $(TOLERANCE)

# bench-baseline refreshes the committed gate baseline on the current tree
# (run after an intentional perf change, commit the result).
bench-baseline:
	go run ./cmd/experiments -bench -scale $(CHECK_SCALE) -reps $(REPS) -shards $(CHECK_SHARDS) \
		-workers $(BENCH_WORKERS) -parworkers $(PAR_WORKERS) \
		-benchout BENCH_baseline.json

# profile emits pprof CPU and heap profiles for one preset pipeline run
# (inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`).
PROFILE_DATASET ?= Rexa-DBLP
profile:
	go run ./cmd/experiments -bench -datasets $(PROFILE_DATASET) -scale $(SCALE) -reps $(REPS) \
		-benchout /tmp/bench-profile.json -cpuprofile cpu.pprof -memprofile mem.pprof
