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
)

// digest serializes everything the pipeline is contracted to reproduce —
// matches with provenance, R4 removals, graph edge count, purge state, name
// attributes and the block statistics of the name and token blocks of the
// substrate it was resolved over — and hashes it,
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
	nameBlocks, tokenBlocks := NameBlocksOf(t, sub), TokenBlocksOf(t, sub)
	fmt.Fprintf(h, "blocks %d %d comparisons %d %d\n",
		nameBlocks.Len(), tokenBlocks.Len(),
		nameBlocks.TotalComparisons(), tokenBlocks.TotalComparisons())
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// resolveDigest builds the substrate of (k1, k2, cfg) and resolves over it
// (ResolveContext in two steps). It returns the output and its digest.
func resolveDigest(t *testing.T, k1, k2 *kb.KB, cfg Config) (*Output, [32]byte) {
	t.Helper()
	ctx := context.Background()
	sub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ResolveWith(ctx, sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, digest(t, sub, out)
}

// shardedDigests resolves over one substrate of (k1, k2, cfg) once per
// worker count: the γ₁ walk and the R3 picks are sharded into chunks across
// the workers. It returns the digest at one worker and at each count.
func shardedDigests(t *testing.T, k1, k2 *kb.KB, cfg Config, workers []int) (want [32]byte, got map[int][32]byte) {
	t.Helper()
	ctx := context.Background()
	sub, err := BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got = map[int][32]byte{}
	for _, w := range append([]int{1}, workers...) {
		c := cfg
		c.Workers = w
		out, err := ResolveWith(ctx, sub, c)
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		if w == 1 && len(out.Matches) == 0 {
			t.Fatal("no matches; test is vacuous")
		}
		got[w] = digest(t, sub, out)
	}
	return got[1], got
}

// A resolution shards its γ₁ walk and R3 picks across its workers; the
// output must be sha256-identical for every worker count on the skewed
// determinism fixture.
func TestResolveShardedIdenticalOnSkewedInput(t *testing.T) {
	k1, k2 := skewedKBs(300)
	want, got := shardedDigests(t, k1, k2, Config{}, []int{2, 7, runtime.GOMAXPROCS(0)})
	for w, sum := range got {
		if sum != want {
			t.Errorf("%d workers: output differs from one worker", w)
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
		want, got := shardedDigests(t, d.K1, d.K2, Config{}, []int{2, runtime.GOMAXPROCS(0)})
		for w, sum := range got {
			if sum != want {
				t.Errorf("%s: output differs at %d workers", profile.Name, w)
			}
		}
	}
}

// Sharding composes with the rule ablations: R4 reads the demanded γ₁
// rows, R3-off still builds γ rows for R4, and the No-Neighbors ablation
// still counts γ edges — each must match the one-worker run exactly.
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
		want, got := shardedDigests(t, k1, k2, Config{Rules: &rules}, []int{2, 5})
		for w, sum := range got {
			if sum != want {
				t.Errorf("%s: output differs at %d workers", name, w)
			}
		}
	}
}

func TestResolveShardedEmptyKBs(t *testing.T) {
	out, _ := resolveDigest(t, kb.NewBuilder("a").Build(), kb.NewBuilder("b").Build(), Config{Workers: 4})
	if len(out.Matches) != 0 || out.GraphEdges != 0 {
		t.Errorf("empty run at 4 workers produced output: %+v", out)
	}
}

// An expired deadline must abort a resolution over a built substrate
// promptly, at several workers as at one.
func TestResolveShardedContextCancelled(t *testing.T) {
	k1, k2 := skewedKBs(200)
	sub, err := BuildSubstrate(context.Background(), k1, k2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	if _, err := ResolveWith(ctx, sub, Config{Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("4 workers past deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}
