// Package minoaner is a schema-agnostic, non-iterative, massively parallel
// entity-resolution library for Web knowledge bases — a from-scratch Go
// reproduction of "MinoanER: Schema-Agnostic, Non-Iterative, Massively
// Parallel Resolution of Web Entities" (Efthymiou, Papadakis, Stefanidis,
// Christophides; EDBT 2019).
//
// Given two clean (duplicate-free) knowledge bases, MinoanER finds the
// entity descriptions that refer to the same real-world entity without any
// schema alignment, training data or expert configuration:
//
//	k1, k2, _, err := minoaner.LoadPair(ctx, "dbpedia.nt", "wikidata.nt", "nt", true)
//	out, err := minoaner.Resolve(ctx, k1, k2, minoaner.DefaultConfig())
//	for _, m := range out.Matches {
//	    fmt.Println(k1.URI(m.Pair.E1), "=", k2.URI(m.Pair.E2), m.Rule)
//	}
//
// The pipeline follows the paper end to end: token-based value similarity
// (Def. 2.1), statistics-driven discovery of important relations and entity
// names (§2.2), composite name/token blocking with Block Purging (§3.1), a
// pruned disjunctive blocking graph (Algorithm 1), and four schema-agnostic
// matching rules — unique names (R1), strong value similarity (R2),
// threshold-free rank aggregation of value and neighbor evidence (R3) and a
// reciprocity filter (R4) — applied in one non-iterative pass (Algorithm 2).
// Every stage is data-parallel over a configurable worker pool.
//
// The exported surface is grouped into four arcs:
//
//   - Build — constructing and loading knowledge bases;
//   - Resolve — the batch pipeline over a KB pair;
//   - Query — build-once substrates and per-entity queries;
//   - Snapshots — persisted substrates with memory-mapped loading;
//   - Serve — the wire schema and server behind cmd/minoanerd.
//
// Every entry point that performs resolution work takes a context first:
// cancellation and deadlines propagate into the data-parallel kernels, which
// observe ctx between chunks and abort promptly.
//
// The library also ships the paper's full evaluation apparatus: synthetic
// benchmark generators profiled after the paper's four dataset pairs,
// reimplementations of the compared systems (BSL, PARIS, SiGMa, RiMOM-IM,
// LINDA-style), and an experiment suite that regenerates every table and
// figure of §6 (see cmd/experiments and EXPERIMENTS.md).
package minoaner

import (
	"context"
	"io"

	"minoaner/internal/baselines"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/server"
	"minoaner/internal/snapshot"
)

// ---------------------------------------------------------------------------
// Build: constructing and loading knowledge bases.

// KB is an immutable knowledge base of entity descriptions.
type KB = kb.KB

// Builder incrementally constructs a KB from entities, literal attributes
// and object (relation) statements.
type Builder = kb.Builder

// EntityID identifies a description within one KB.
type EntityID = kb.EntityID

// TokenID is a dense identifier into a token dictionary (Interner).
type TokenID = kb.TokenID

// Interner is a token dictionary that interns every distinct token string
// once. Share one Interner between the two KBs of a pair (see
// NewBuilderWithInterner) and the resolution pipeline operates on a single
// dense token-ID space end to end, skipping all cross-dictionary work.
type Interner = kb.Interner

// Description is one entity: a URI with attribute-value pairs and relations.
type Description = kb.Description

// AttributeValue is one literal attribute-value pair of a description —
// the unit EntityQuery statements are expressed in.
type AttributeValue = kb.AttributeValue

// NewBuilder starts a KB with the given display name.
func NewBuilder(name string) *Builder { return kb.NewBuilder(name) }

// NewInterner returns an empty shared token dictionary.
func NewInterner() *Interner { return kb.NewInterner() }

// NewBuilderWithInterner starts a KB that interns its tokens into the given
// shared dictionary — the fast path for resolving the resulting KB against
// another KB built over the same Interner.
func NewBuilderWithInterner(name string, dict *Interner) *Builder {
	return kb.NewBuilderWithInterner(name, dict)
}

// Schema is the schema-axis dictionary set: relation predicates, attribute
// names and normalized literal values, interned once at KB build time into
// dense IDs the statistics stage counts over. Share one Schema between the
// two KBs of a pair (see NewBuilderWithDicts) the same way the token
// Interner is shared.
type Schema = kb.Schema

// NewSchema returns an empty shared schema dictionary set.
func NewSchema() *Schema { return kb.NewSchema() }

// NewBuilderWithDicts starts a KB over a shared token dictionary AND a
// shared schema dictionary — the full dense-ID pairing for clean-clean ER.
func NewBuilderWithDicts(name string, dict *Interner, schema *Schema) *Builder {
	return kb.NewBuilderWithDicts(name, dict, schema)
}

// LoadNTriples reads a KB in N-Triples format; lenient skips malformed
// lines instead of failing. It returns the KB and the skipped-line count.
func LoadNTriples(name string, r io.Reader, lenient bool) (*KB, int, error) {
	return kb.LoadNTriples(name, r, lenient)
}

// LoadTSV reads a KB from tab-separated subject/predicate/object rows.
func LoadTSV(name string, r io.Reader, uriObjects bool) (*KB, int, error) {
	return kb.LoadTSV(name, r, uriObjects)
}

// LoadPair ingests the two KBs of a pair from files — E1 then E2, format
// "nt" or "tsv" — into one shared token dictionary and one shared schema
// dictionary. This is the fast path to Resolve and BuildSubstrate: blocking
// runs on a single dense ID space instead of merging two dictionaries by
// string, and a snapshot of the pair stores one dictionary instead of three.
// KBs loaded one at a time still resolve to the same matches. It returns the
// KBs and the skipped-line count of each file.
func LoadPair(ctx context.Context, path1, path2, format string, lenient bool) (k1, k2 *KB, skipped [2]int, err error) {
	return kb.LoadPair(ctx, path1, path2, format, lenient)
}

// WriteNTriples serializes a KB in N-Triples format.
func WriteNTriples(w io.Writer, k *KB) error { return kb.WriteNTriples(w, k) }

// ---------------------------------------------------------------------------
// Resolve: the batch pipeline over a KB pair.

// Config holds the MinoanER parameters: k (name attributes), K (candidates
// per node), N (top relations), θ (rank-aggregation trade-off), the Block
// Purging cap and the worker count.
type Config = core.Config

// RuleConfig toggles the individual matching rules (R1–R4) and neighbor
// evidence, for ablation studies.
type RuleConfig = matching.Config

// Output is the result of a pipeline run: matches with rule provenance,
// block statistics and per-stage timings.
type Output = core.Output

// Match is one detected correspondence and the rule that produced it.
type Match = matching.Match

// Rule identifies the matching rule (R1–R4) behind a match.
type Rule = matching.Rule

// NoBlockPurging disables Block Purging when assigned to
// Config.MaxBlockFraction (whose zero value selects the paper's default).
const NoBlockPurging = core.NoBlockPurging

// DefaultConfig returns the paper's suggested global configuration
// (k, K, N, θ) = (2, 15, 3, 0.6).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultRules returns the paper's rule configuration (all rules enabled).
func DefaultRules() RuleConfig { return matching.DefaultConfig() }

// Resolve runs the full MinoanER pipeline on two clean KBs. The pipeline
// observes ctx between parallel chunks and stage barriers, returning
// ctx.Err() promptly on cancellation or deadline expiry.
func Resolve(ctx context.Context, k1, k2 *KB, cfg Config) (*Output, error) {
	return core.ResolveContext(ctx, k1, k2, cfg)
}

// ---------------------------------------------------------------------------
// Query: build-once substrates and per-entity queries.

// Substrate is the reusable, immutable pair-level state of a KB pair: name
// attributes, relation ranks, top-neighbor rows, blocking collections and
// the token index, built once by BuildSubstrate and shared by any number of
// ResolveWith runs and concurrent QueryEntity calls.
type Substrate = core.Substrate

// EntityQuery is one entity description to resolve against a Substrate —
// either a synthetic new entity or (via SelfURI / QueryFromEntity) a member
// of E1 replayed through the query path.
type EntityQuery = core.EntityQuery

// QueryObject is one relation statement of an EntityQuery.
type QueryObject = core.QueryObject

// QueryMatch is one ranked candidate returned by QueryEntity, with the
// matching-rule claim and the value/neighbor evidence behind it.
type QueryMatch = core.QueryMatch

// BuildSubstrate runs the build-once stages of the pipeline (statistics and
// blocking) and freezes the result for reuse. Resolve is exactly
// BuildSubstrate followed by ResolveWith.
func BuildSubstrate(ctx context.Context, k1, k2 *KB, cfg Config) (*Substrate, error) {
	return core.BuildSubstrate(ctx, k1, k2, cfg)
}

// ResolveWith runs the per-entity stages (blocking graph and matching) over
// a prebuilt Substrate. For any substrate built from (k1, k2, cfg), the
// output is byte-identical to Resolve(ctx, k1, k2, cfg).
func ResolveWith(ctx context.Context, sub *Substrate, cfg Config) (*Output, error) {
	return core.ResolveWith(ctx, sub, cfg)
}

// QueryEntity resolves a single entity description against a Substrate
// without rerunning the batch pipeline, returning ranked candidates from
// E2. A query replaying an E1 member (see QueryFromEntity) reproduces that
// entity's batch candidate rows and rule decisions exactly. Safe for
// concurrent use on one Substrate.
func QueryEntity(ctx context.Context, sub *Substrate, q EntityQuery, cfg Config) ([]QueryMatch, error) {
	return core.QueryEntity(ctx, sub, q, cfg)
}

// QueryFromEntity lifts an existing E1 entity into an EntityQuery that
// replays it through the per-entity query path.
func QueryFromEntity(k *KB, e EntityID) EntityQuery { return core.QueryFromEntity(k, e) }

// ReplayEntity answers the replay of E1 entity e — what QueryEntity returns
// for QueryFromEntity(sub.K1(), e) — from the rows the substrate's graph
// stores for e, without reading e's statements. Safe for concurrent use on
// one Substrate.
func ReplayEntity(ctx context.Context, sub *Substrate, e EntityID, cfg Config) ([]QueryMatch, error) {
	return core.ReplayEntity(ctx, sub, e, cfg)
}

// ---------------------------------------------------------------------------
// Snapshots: persisted substrates with memory-mapped loading.

// LoadedSnapshot is an open substrate snapshot. The substrate aliases the
// snapshot bytes (a read-only memory mapping when possible); Close unmaps
// and must only be called once all queries over the substrate have drained.
type LoadedSnapshot = snapshot.Loaded

// WriteSnapshot serializes a built substrate — including its prewarmed
// per-entity query state — into the versioned binary snapshot format.
func WriteSnapshot(w io.Writer, sub *Substrate) error { return snapshot.WriteSubstrate(w, sub) }

// WriteSnapshotFile writes a substrate snapshot to path atomically.
func WriteSnapshotFile(path string, sub *Substrate) error {
	return snapshot.WriteSubstrateFile(path, sub)
}

// OpenSnapshot memory-maps a snapshot file and reinterprets its columns in
// place: the returned substrate is query-ready (its persisted query state is
// installed) after near-zero copying work.
func OpenSnapshot(path string) (*LoadedSnapshot, error) { return snapshot.OpenSubstrate(path) }

// ReadSnapshot decodes a snapshot image from memory through the portable
// copying decoder (the cross-endian path; data must stay immutable).
func ReadSnapshot(data []byte) (*LoadedSnapshot, error) { return snapshot.ReadSubstrate(data) }

// ---------------------------------------------------------------------------
// Serve: the wire schema and server behind cmd/minoanerd.

// QueryCandidate is the shared wire form of one ranked QueryMatch — the
// JSON schema emitted both by `cmd/minoaner -query -json` and inside the
// /v1/pairs/{id}/query response of cmd/minoanerd, byte-compatible by
// construction.
type QueryCandidate = server.QueryCandidate

// QueryCandidates lowers ranked QueryMatch rows onto the shared wire
// schema; the result is never nil, so an empty ranking serializes as [].
func QueryCandidates(ms []QueryMatch) []QueryCandidate { return server.Candidates(ms) }

// Server is the resolution-as-a-service HTTP server: a registry of loaded
// KB pairs whose substrates are built once and shared across requests,
// behind the versioned /v1 query API (see cmd/minoanerd).
type Server = server.Server

// ServerOptions configures NewServer; the zero value serves on a random
// localhost port with production defaults and builds pairs in-process.
// BuildCommand moves each build into a child process the way cmd/minoanerd
// does — point it at a minoanerd binary: {"/path/to/minoanerd",
// "build-child"}.
type ServerOptions = server.Options

// NewServer builds a resolution server with an empty pair registry.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// ---------------------------------------------------------------------------
// Evaluate and benchmark: the paper's evaluation apparatus.

// Pair is a cross-KB correspondence.
type Pair = eval.Pair

// GroundTruth is a set of true matches used for evaluation.
type GroundTruth = eval.GroundTruth

// Metrics is the precision / recall / F1 triple.
type Metrics = eval.Metrics

// NewGroundTruth builds a GroundTruth from pairs.
func NewGroundTruth(pairs []Pair) *GroundTruth { return eval.NewGroundTruth(pairs) }

// GroundTruthFromURIs resolves URI-level correspondences against the KBs,
// returning the ground truth and the number of pairs whose URIs were absent.
func GroundTruthFromURIs(k1, k2 *KB, uriPairs [][2]string) (*GroundTruth, int) {
	pairs, skipped := eval.PairsFromURIs(k1, k2, uriPairs)
	return eval.NewGroundTruth(pairs), skipped
}

// Evaluate scores proposed matches against the ground truth.
func Evaluate(matches []Pair, gt *GroundTruth) Metrics { return eval.Evaluate(matches, gt) }

// BenchmarkProfile configures the synthetic benchmark generator.
type BenchmarkProfile = datagen.Profile

// BenchmarkDataset is a generated KB pair with ground truth.
type BenchmarkDataset = datagen.Dataset

// The four benchmark presets mirror the paper's Table 1 dataset profiles.
var (
	RestaurantProfile      = datagen.Restaurant
	RexaDBLPProfile        = datagen.RexaDBLP
	BBCMusicDBpediaProfile = datagen.BBCMusicDBpedia
	YAGOIMDbProfile        = datagen.YAGOIMDb
)

// GenerateBenchmark builds a synthetic clean-clean ER benchmark.
func GenerateBenchmark(p BenchmarkProfile) (*BenchmarkDataset, error) { return datagen.Generate(p) }

// ScaleProfile shrinks or grows a benchmark profile's entity counts.
func ScaleProfile(p BenchmarkProfile, factor float64) BenchmarkProfile {
	return datagen.Scale(p, factor)
}

// PARISBaseline runs the reimplemented PARIS matcher (Table 3 baseline).
func PARISBaseline(k1, k2 *KB) []Pair {
	return baselines.PARIS(k1, k2, baselines.DefaultPARISConfig())
}
