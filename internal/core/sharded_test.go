package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/testkb"
)

// digest serializes everything the pipeline is contracted to reproduce —
// matches with provenance, R4 removals, graph edge count, purge state, name
// attributes and the block statistics of the output's name blocks and of
// the token blocks of the substrate it was resolved over — and hashes it,
// so runs can be compared as a single value.
func digest(t *testing.T, sub *Substrate, out *Output) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, m := range out.Matches {
		fmt.Fprintf(h, "m %d %d %s\n", m.Pair.E1, m.Pair.E2, m.Rule)
	}
	fmt.Fprintf(h, "r4 %d edges %d purged %d threshold %d\n",
		out.RemovedByR4, out.GraphEdges, out.PurgedBlocks, out.PurgeThreshold)
	fmt.Fprintf(h, "names %v %v\n", out.NameAttrs1, out.NameAttrs2)
	tokenBlocks := sub.TokenBlocks()
	fmt.Fprintf(h, "blocks %d %d comparisons %d %d\n",
		out.NameBlocks.Len(), tokenBlocks.Len(),
		out.NameBlocks.TotalComparisons(), tokenBlocks.TotalComparisons())
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// resolveSpans builds the substrate of (k1, k2, cfg) and resolves over it
// with E1's γ rows in at least spans spans; spans = 1 is ResolveContext.
// It returns the output and its digest.
func resolveSpans(t *testing.T, k1, k2 *kb.KB, cfg Config, spans int) (*Output, [32]byte) {
	t.Helper()
	ctx := context.Background()
	sub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResolveWithSpans(ctx, sub, cfg, spans)
	if err != nil {
		t.Fatalf("%d spans: %v", spans, err)
	}
	return out, digest(t, sub, out)
}

func spanCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// A sharded resolution builds and matches E1's γ rows in contiguous shards,
// the spans of resolveWith; the output must be sha256-identical for every
// shard count on the skewed determinism fixture.
func TestResolveShardedIdenticalOnSkewedInput(t *testing.T) {
	k1, k2 := skewedKBs(300)
	ref, want := resolveSpans(t, k1, k2, Config{}, 1)
	if len(ref.Matches) == 0 {
		t.Fatal("skewed fixture produced no matches; test is vacuous")
	}
	for _, p := range spanCounts() {
		if got, sum := resolveSpans(t, k1, k2, Config{}, p); sum != want {
			t.Fatalf("%d spans: output differs from one span:\n--- one span\n%s--- %d spans\n%s",
				p, renderMatches(ref), p, renderMatches(got))
		}
	}
}

// The identity must also hold on all four Table-1 preset profiles (scaled
// down to keep the test fast) — the workloads with realistic token, name and
// relation structure.
func TestResolveShardedIdenticalOnPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("preset sweep is slow")
	}
	for _, profile := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(profile, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		ref, want := resolveSpans(t, d.K1, d.K2, Config{}, 1)
		if len(ref.Matches) == 0 {
			t.Fatalf("%s: no matches; test is vacuous", profile.Name)
		}
		for _, p := range []int{2, runtime.GOMAXPROCS(0)} {
			if _, sum := resolveSpans(t, d.K1, d.K2, Config{}, p); sum != want {
				t.Errorf("%s: output differs at %d spans", profile.Name, p)
			}
		}
	}
}

// Sharding composes with the rule ablations: R4 relies on shard-local γ
// evidence, R3-off still builds γ rows for R4, and the No-Neighbors ablation
// still counts γ edges — each must match the one-shard run exactly.
func TestResolveShardedRuleAblations(t *testing.T) {
	k1, k2 := skewedKBs(120)
	cases := map[string]matching.Config{
		"all":          matching.DefaultConfig(),
		"noR3":         {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR4: true, UseNeighbors: true},
		"noR4":         {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, UseNeighbors: true},
		"noNeighbors":  {Theta: 0.6, EnableR1: true, EnableR2: true, EnableR3: true, EnableR4: true},
		"onlyR3andR4":  {Theta: 0.6, EnableR3: true, EnableR4: true, UseNeighbors: true},
		"nothingButR1": {Theta: 0.6, EnableR1: true},
	}
	for name, rules := range cases {
		cfg := Config{Rules: &rules}
		_, want := resolveSpans(t, k1, k2, cfg, 1)
		for _, p := range []int{2, 5} {
			if _, sum := resolveSpans(t, k1, k2, cfg, p); sum != want {
				t.Errorf("%s: output differs at %d spans", name, p)
			}
		}
	}
}

func TestShardSpans(t *testing.T) {
	if spans := shardSpans(0, 4); spans != nil {
		t.Errorf("shardSpans(0, 4) = %v, want nil", spans)
	}
	spans := shardSpans(10, 3)
	if len(spans) != 3 {
		t.Fatalf("shardSpans(10, 3) = %v, want 3 spans", spans)
	}
	lo := 0
	total := 0
	for _, s := range spans {
		if s.Lo != lo || s.Hi <= s.Lo {
			t.Fatalf("spans not contiguous ascending: %v", spans)
		}
		lo = s.Hi
		total += s.Len()
	}
	if total != 10 || lo != 10 {
		t.Errorf("spans do not cover [0,10): %v", spans)
	}
	if spans := shardSpans(2, 8); len(spans) != 2 {
		t.Errorf("shardSpans(2, 8) = %v, want 2 non-empty spans", spans)
	}
}

func TestResolveShardedEmptyKBs(t *testing.T) {
	out, _ := resolveSpans(t, kb.NewBuilder("a").Build(), kb.NewBuilder("b").Build(), Config{}, 4)
	if len(out.Matches) != 0 || out.GraphEdges != 0 {
		t.Errorf("empty run in 4 spans produced output: %+v", out)
	}
}

// A shard count far above |E1| degrades to one entity per shard and still
// reproduces the one-shard output (Figure 1 fixture).
func TestResolveShardedMoreShardsThanEntities(t *testing.T) {
	w, d := testkb.Figure1()
	_, want := resolveSpans(t, w, d, Config{}, 1)
	if _, sum := resolveSpans(t, w, d, Config{}, 1000); sum != want {
		t.Error("one entity per span differs from one span")
	}
}

// An expired deadline must abort a resolution in many shards promptly, like
// one in a single shard.
func TestResolveShardedContextCancelled(t *testing.T) {
	k1, k2 := skewedKBs(200)
	sub, err := BuildSubstrate(context.Background(), k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	if _, err := ResolveWithSpans(ctx, sub, Config{}, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("4 spans past deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}
