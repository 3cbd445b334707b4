# Developer entry points. CI runs the same steps (see .github/workflows/ci.yml).
# End-to-end performance is measured by the repository benchmark under
# benchmark/ (see BENCHMARK.json and benchmark/README.md).

.PHONY: build test race race-overlap fmt vet bench-module-check fuzz-smoke lint cover bench-test smoke smoke-examples serve-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# race-overlap exercises the overlapped substrate build, the concurrent γ
# sides of graph construction and the streamed batch resolve, whose γ rows are
# chosen by a row demand read while spans fill — narrowed to the rows R3 and
# R4 can read, and checked against a demand for every row at 1, 2 and 8
# workers — under the race detector at an
# explicit workers=2 engine (the smallest size where the removed barriers
# matter), plus sixteen readers of a freshly opened snapshot racing for the
# checks its open deferred (each must run exactly once), sixteen describe
# queries racing for the token index a freshly opened pair derives (derived
# exactly once, after a cancelled first query derived nothing), the chunked
# ingester's parsers stopped by a cancelled ctx and by a parse error while
# later chunks are in flight, and merged chunks whose arrays the Builder keeps
# while the chunks go back to the parsers, repeated so goroutine
# interleavings vary.
race-overlap:
	go test -race -count=2 -run 'Overlap|TokenIndexDerivedOnce|StreamedResolve|NarrowDemand|IngestLifecycle|ChunkedIngestEqualsSerial' ./internal/core ./internal/graph ./internal/kb ./internal/matching

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
# behind the dictionaries, the string-order kernel behind their sorted
# permutations, the snapshot loader — for ten seconds on top of its
# committed corpus.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadNTriples$$' -fuzztime 10s ./internal/kb
	go test -run '^$$' -fuzz '^FuzzInterner$$' -fuzztime 10s ./internal/kb
	go test -run '^$$' -fuzz '^FuzzSortedOrder$$' -fuzztime 10s ./internal/kb
	go test -run '^$$' -fuzz '^FuzzOpenSubstrate$$' -fuzztime 10s ./internal/snapshot

# lint mirrors the CI lint job; requires golangci-lint on PATH.
lint:
	golangci-lint run ./...

# cover writes the race-enabled coverage profile CI uploads as an artifact.
cover:
	go test -race -covermode=atomic -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -n 1

# bench-test runs the Go benchmark suite (tables, figures, stages, ablations).
bench-test:
	go test -bench . -run '^$$' -benchmem .

# smoke is the fast CI variant: one small preset through the pipeline
# benchmark and through cmd/experiments (Table 1, and Table 2, which reads
# the blocks of the substrate the pipeline resolves over), plus a CLI round
# trip through the per-entity query path (-query, both output formats) on a
# generated dataset, and a snapshot round trip: the substrate is persisted
# with -save-snapshot, reloaded with -snapshot, and the two query paths must
# emit byte-identical candidates JSON, and a batch resolve from the snapshot
# must print the matches (with their rules) of a cold one, byte for byte.
# The snapshot is written a second time at GOMAXPROCS=1, where the build runs
# its stages one after another, and a third time with -workers 1; all three
# files must be the same bytes. The generated files live in a temporary
# directory removed when the recipe's shell exits.
smoke:
	go test -run '^$$' -bench '^BenchmarkPipelineRestaurant$$' -benchtime 1x .
	go run ./cmd/experiments -table 1 -datasets Restaurant -scale 0.2
	go run ./cmd/experiments -table 2 -datasets Restaurant -scale 0.2
	@set -ex; T="$$(mktemp -d)"; trap 'rm -rf "$$T"' EXIT; \
	go run ./cmd/datagen -preset Restaurant -scale 0.2 -out "$$T"; \
	Q="$$(head -1 "$$T/gt.tsv" | cut -f1)"; \
	go run ./cmd/minoaner -e1 "$$T/e1.nt" -e2 "$$T/e2.nt" -query "$$Q"; \
	go run ./cmd/minoaner -e1 "$$T/e1.nt" -e2 "$$T/e2.nt" -save-snapshot "$$T/pair.snap" \
		-query "$$Q" -json -quiet > "$$T/q-build.json"; \
	go run ./cmd/minoaner -snapshot "$$T/pair.snap" -query "$$Q" -json -quiet > "$$T/q-snap.json"; \
	cmp "$$T/q-build.json" "$$T/q-snap.json"; \
	go run ./cmd/minoaner -e1 "$$T/e1.nt" -e2 "$$T/e2.nt" -rules -quiet > "$$T/batch-cold.tsv"; \
	go run ./cmd/minoaner -snapshot "$$T/pair.snap" -rules -quiet > "$$T/batch-warm.tsv"; \
	test -s "$$T/batch-cold.tsv"; \
	cmp "$$T/batch-cold.tsv" "$$T/batch-warm.tsv"; \
	GOMAXPROCS=1 go run ./cmd/minoaner -e1 "$$T/e1.nt" -e2 "$$T/e2.nt" -save-snapshot "$$T/pair-1p.snap" -quiet > /dev/null; \
	cmp "$$T/pair.snap" "$$T/pair-1p.snap"; \
	go run ./cmd/minoaner -e1 "$$T/e1.nt" -e2 "$$T/e2.nt" -workers 1 -save-snapshot "$$T/pair-w1.snap" -quiet > /dev/null; \
	cmp "$$T/pair.snap" "$$T/pair-w1.snap"

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
