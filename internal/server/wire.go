// The /v1 wire schema of the resolution service — every request and
// response body minoanerd speaks, as plain structs with stable JSON tags.
// The schema is versioned by the URL prefix: breaking changes mean /v2, not
// edited tags. QueryCandidate is shared with `cmd/minoaner -query -json`
// through the facade (minoaner.QueryCandidates), so the CLI's output and the
// /v1 query response carry byte-identical candidate rows — the round-trip
// test in wire_test.go pins the bytes.
package server

import (
	"minoaner/internal/core"
)

// Stable error codes of the /v1 error envelope. Clients dispatch on Code;
// Message is human-readable and free to change.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeBodyTooLarge     = "body_too_large"
	CodePairNotFound     = "pair_not_found"
	CodePairNotReady     = "pair_not_ready"
	CodePairFailed       = "pair_failed"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeShuttingDown     = "shutting_down"
	CodeInternal         = "internal"
)

// ErrorEnvelope is the uniform error response of every /v1 endpoint.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries one error: a stable machine code plus a human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// PairConfig is the wire form of the resolution parameters a pair is built
// with; zero fields select the paper defaults (see core.DefaultConfig).
type PairConfig struct {
	NameK            int     `json:"name_k,omitempty"`
	TopK             int     `json:"top_k,omitempty"`
	RelN             int     `json:"rel_n,omitempty"`
	Theta            float64 `json:"theta,omitempty"`
	MaxBlockFraction float64 `json:"max_block_fraction,omitempty"`
	// Workers may not exceed the server's GOMAXPROCS; 0 uses all of them.
	Workers int `json:"workers,omitempty"`
}

// coreConfig lowers the wire config onto core.Config. Validation happens in
// core (Config.normalize) so the service cannot drift from the library.
func (p *PairConfig) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	if p == nil {
		return cfg
	}
	if p.NameK != 0 {
		cfg.NameK = p.NameK
	}
	if p.TopK != 0 {
		cfg.TopK = p.TopK
	}
	if p.RelN != 0 {
		cfg.RelN = p.RelN
	}
	if p.Theta != 0 {
		cfg.Theta = p.Theta
	}
	if p.MaxBlockFraction != 0 {
		cfg.MaxBlockFraction = p.MaxBlockFraction
	}
	cfg.Workers = p.Workers
	return cfg
}

// LoadPairRequest asks the registry to load and index one KB pair
// (POST /v1/pairs). The build is asynchronous: the response is the pair's
// PairInfo with status "building"; poll GET /v1/pairs/{id} until "ready".
// Loading an ID that is already registered returns the existing entry
// without a second build (the service-level singleflight).
type LoadPairRequest struct {
	// ID names the pair; empty derives a deterministic ID from the spec, so
	// identical concurrent loads coalesce onto one build.
	ID string `json:"id,omitempty"`
	// E1 and E2 are server-local dataset paths. Not used (and not required)
	// when Snapshot is set.
	E1 string `json:"e1"`
	E2 string `json:"e2"`
	// Format is "nt" (default) or "tsv".
	Format string `json:"format,omitempty"`
	// Config carries the build parameters (defaults: the paper's). Ignored
	// when Snapshot is set — a snapshot carries its build configuration.
	Config *PairConfig `json:"config,omitempty"`
	// Snapshot, when set, sources the pair from a server-local substrate
	// snapshot instead of KB dumps: the file is memory-mapped and the pair is
	// query-ready (persisted query state included) without any rebuild.
	Snapshot string `json:"snapshot,omitempty"`
	// SaveSnapshot, when set, persists the substrate (with its query state)
	// to this server-local path once the build succeeds, so later loads can
	// warm-start from it. Mutually exclusive with Snapshot. Without it a pair
	// built by minoanerd still passes through a snapshot: a temporary file
	// under TMPDIR, unlinked as soon as it is mapped.
	SaveSnapshot string `json:"save_snapshot,omitempty"`
}

// Pair statuses reported in PairInfo.
const (
	StatusBuilding = "building"
	StatusReady    = "ready"
	StatusFailed   = "failed"
)

// PairTimings is the substrate build breakdown of a pair this server built,
// in milliseconds (CPU-work sums per stage; BuildMS on PairInfo is the real,
// possibly shorter, overlapped wall clock).
type PairTimings struct {
	StatisticsMS float64 `json:"statistics_ms"`
	BlockingMS   float64 `json:"blocking_ms"`
}

// PairInfo is one registry entry as reported by GET /v1/pairs[/{id}].
type PairInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	E1     string `json:"e1"`
	E2     string `json:"e2"`
	Format string `json:"format"`
	// Snapshot is the snapshot path the pair was loaded from, if any; for
	// snapshot-sourced pairs LoadMS is the mmap-open wall clock, and BuildMS,
	// PrewarmMS and Timings are absent: a snapshot does not record how long
	// its build took.
	Snapshot string `json:"snapshot,omitempty"`
	// E1Size/E2Size are entity counts, present once the pair is ready.
	E1Size int `json:"e1_size,omitempty"`
	E2Size int `json:"e2_size,omitempty"`
	// For a pair this server built from e1 and e2, as its build reported
	// them: LoadMS is the KB parse+index time, BuildMS the substrate build
	// wall clock after it, PrewarmMS the query-state construction after that,
	// and Timings the build's breakdown.
	LoadMS    float64      `json:"load_ms,omitempty"`
	BuildMS   float64      `json:"build_ms,omitempty"`
	PrewarmMS float64      `json:"prewarm_ms,omitempty"`
	Timings   *PairTimings `json:"timings,omitempty"`
	// Queries counts the queries served from this pair's substrate.
	Queries int64 `json:"queries"`
	// Error is the build failure, when Status is "failed".
	Error string `json:"error,omitempty"`
}

// ListPairsResponse is the GET /v1/pairs body.
type ListPairsResponse struct {
	Pairs []PairInfo `json:"pairs"`
}

// QueryAttr is one literal attribute statement of a query entity.
type QueryAttr struct {
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
}

// QueryObject is one relation statement of a query entity; objects that are
// not E1 URIs are demoted to literal attributes, as everywhere else.
type QueryObject struct {
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
}

// QueryRequest resolves one entity description against a loaded pair
// (POST /v1/pairs/{id}/query). Two formats, mirroring `cmd/minoaner -query`:
//
//   - replay: only URI set, naming an E1 entity — the entity is re-described
//     (self-aware α and R4 semantics), answered from the rows the pair's
//     graph stores for it (core.ReplayEntity) rather than from its
//     statements; the statement path is its pinned reference, so the
//     candidates equal those of the explicit form with the entity's own
//     statements and SelfURI;
//   - explicit: Attrs/Objects carry the description of a new entity (URI is
//     then informational; set SelfURI to re-describe an E1 member).
type QueryRequest struct {
	URI     string        `json:"uri,omitempty"`
	SelfURI string        `json:"self_uri,omitempty"`
	Attrs   []QueryAttr   `json:"attrs,omitempty"`
	Objects []QueryObject `json:"objects,omitempty"`
	// TimeoutMS bounds this request's deadline (capped by the server's
	// MaxTimeout); 0 uses the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryCandidate is the wire form of one ranked core.QueryMatch — the shared
// schema behind both the /v1 query response and `cmd/minoaner -query -json`.
type QueryCandidate struct {
	URI         string  `json:"uri"`
	Rule        string  `json:"rule"`
	Score       float64 `json:"score"`
	ValueSim    float64 `json:"value_sim,omitempty"`
	NeighborSim float64 `json:"neighbor_sim,omitempty"`
	Reciprocal  bool    `json:"reciprocal"`
}

// Candidates lowers ranked QueryMatch rows onto the wire schema. The result
// is never nil, so an empty ranking serializes as [] rather than null.
func Candidates(ms []core.QueryMatch) []QueryCandidate {
	out := make([]QueryCandidate, 0, len(ms))
	for _, m := range ms {
		out = append(out, QueryCandidate{
			URI:         m.URI,
			Rule:        m.Rule.String(),
			Score:       m.Score,
			ValueSim:    m.ValueSim,
			NeighborSim: m.NeighborSim,
			Reciprocal:  m.Reciprocal,
		})
	}
	return out
}

// QueryResponse is the POST /v1/pairs/{id}/query body: ranked candidates,
// best first, plus the server-side kernel time.
type QueryResponse struct {
	Pair       string           `json:"pair"`
	URI        string           `json:"uri,omitempty"`
	Candidates []QueryCandidate `json:"candidates"`
	ElapsedUS  float64          `json:"elapsed_us"`
}

// ResolveRequest runs a batch resolution over the pair's shared substrate
// (POST /v1/pairs/{id}/resolve). Only matching-side parameters can be
// overridden — the substrate's build parameters are frozen.
type ResolveRequest struct {
	Theta     float64 `json:"theta,omitempty"`
	TopK      int     `json:"top_k,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// ResolveMatch is one detected correspondence with rule provenance.
type ResolveMatch struct {
	URI1 string `json:"uri1"`
	URI2 string `json:"uri2"`
	Rule string `json:"rule"`
}

// ResolveResponse is the batch-resolution result.
type ResolveResponse struct {
	Pair        string         `json:"pair"`
	Matches     []ResolveMatch `json:"matches"`
	MatchCount  int            `json:"match_count"`
	GraphEdges  int            `json:"graph_edges"`
	RemovedByR4 int            `json:"removed_by_r4"`
	ElapsedMS   float64        `json:"elapsed_ms"`
}

// EntitiesResponse is the GET /v1/pairs/{id}/entities body: a prefix of the
// pair's E1 URIs, the replay-format query corpus load tests cycle through.
type EntitiesResponse struct {
	Pair  string   `json:"pair"`
	Count int      `json:"count"`
	URIs  []string `json:"uris"`
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"`
	Pairs  int    `json:"pairs,omitempty"`
}
