// Sharded, memory-bounded execution of the MinoanER pipeline: E1 is split
// into P contiguous entity shards and the stages whose state is per E1
// entity and transient — top-neighbor extraction, E1-side γ construction and
// rank aggregation — run one shard at a time over the SHARED substrate and
// graph (built once, whatever P is). Per-shard results merge in span order,
// so the output is byte-identical to Resolve for every shard count; only the
// lifetime of the transient per-shard state changes. Every resolution runs
// this way: P = 1 merely leaves the span size to the pipeline
// (gammaSpanRows). This is the in-process analogue of
// the paper's executor partitioning (§4.1) and the seam a later multi-process
// distribution plugs into: each shard touches only its E1 span plus the
// shared read-only indices.
package core

import (
	"context"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// effectiveShards resolves the shard count of a normalized Config for an E1
// of n1 entities: an explicit ShardCount wins; otherwise a MaxShardBytes
// budget implies a count; otherwise 1 (monolithic).
func (c Config) effectiveShards(n1 int) int {
	p := c.ShardCount
	if p == 0 && c.MaxShardBytes > 0 {
		p = shardCountForBudget(n1, c.TopK, c.MaxShardBytes)
	}
	if p < 1 {
		p = 1
	}
	if p > n1 && n1 > 0 {
		p = n1
	}
	return p
}

// shardCountForBudget derives a shard count from a per-shard byte budget.
// The dominant structure whose lifetime sharding bounds is the shard's γ
// candidate rows: one slice header plus up to K edges per entity.
func shardCountForBudget(n1, topK int, maxBytes int64) int {
	perRow := int64(24 + 16*topK)
	rows := maxBytes / perRow
	if rows < 1 {
		rows = 1
	}
	return int((int64(n1) + rows - 1) / rows)
}

// shardSpans partitions [0, n) into at most p contiguous ascending spans of
// near-equal size (never empty; nil for n == 0).
func shardSpans(n, p int) []parallel.Span {
	return parallel.New(p).Partitions(n)
}

// ResolveSharded runs the full MinoanER pipeline with E1 split into p
// contiguous shards — the same BuildSubstrate + resolveWith composition as
// ResolveContext. Output (matches, rule provenance, R4 removals, graph edge
// count, block statistics) is byte-identical to Resolve / ResolveContext on
// the same inputs for every p; a larger p lowers the memory the E1-side γ
// rows — the largest per-node structure of the graph — and the other
// per-shard transients hold at a time. p < 1 falls back to the count implied
// by cfg (ShardCount / MaxShardBytes, else 1).
func ResolveSharded(ctx context.Context, k1, k2 *kb.KB, cfg Config, p int) (*Output, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if p < 1 {
		p = cfg.effectiveShards(k1.Len())
	}
	eng := parallel.New(cfg.Workers)
	sub, err := buildSubstrate(ctx, eng, k1, k2, cfg, p)
	if err != nil {
		return nil, err
	}
	return resolveWith(ctx, eng, sub, cfg, p)
}
