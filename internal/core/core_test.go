package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/testkb"
)

func TestResolveFigure1(t *testing.T) {
	w, d := testkb.Figure1()
	out, err := ResolveContext(context.Background(), w, d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gt := eval.NewGroundTruth(mustPairs(t, w, d, [][2]string{
		{"w:Restaurant1", "d:Restaurant2"},
		{"w:JohnLakeA", "d:JonnyLake"},
		{"w:Bray", "d:Berkshire"},
		{"w:UK", "d:England"},
	}))
	m := eval.Evaluate(out.Pairs(), gt)
	// The fixture's first three pairs are detectable; UK–England share no
	// evidence, so recall 0.75 is the ceiling... unless neighbor evidence
	// recovers it. Require at least the strong pairs.
	if m.TruePositives < 2 {
		t.Errorf("found %d true matches, want ≥ 2 (%v)", m.TruePositives, out.Matches)
	}
	if out.GraphEdges == 0 {
		t.Error("graph has no edges")
	}
	if out.Timings.Total <= 0 {
		t.Error("timings not recorded")
	}
	if len(out.NameAttrs1) != 2 || len(out.NameAttrs2) != 2 {
		t.Errorf("name attrs = %v / %v, want 2 each", out.NameAttrs1, out.NameAttrs2)
	}
}

func mustPairs(t *testing.T, k1, k2 *kb.KB, uris [][2]string) []eval.Pair {
	t.Helper()
	pairs, skipped := eval.PairsFromURIs(k1, k2, uris)
	if skipped != 0 {
		t.Fatalf("ground truth URIs missing from KBs")
	}
	return pairs
}

func TestConfigNormalization(t *testing.T) {
	// Zero config gets defaults.
	c, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.NameK != 2 || c.TopK != 15 || c.RelN != 3 || c.Theta != 0.6 {
		t.Errorf("defaults = %+v", c)
	}
	if c.MaxBlockFraction != DefaultConfig().MaxBlockFraction {
		t.Errorf("zero MaxBlockFraction = %v, want the default %v (purging silently disabled)",
			c.MaxBlockFraction, DefaultConfig().MaxBlockFraction)
	}
	if c.Rules == nil || !c.Rules.EnableR1 {
		t.Error("default rules must enable R1")
	}
}

func TestConfigNoBlockPurgingSentinel(t *testing.T) {
	c, err := Config{MaxBlockFraction: NoBlockPurging}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxBlockFraction != 0 {
		t.Errorf("NoBlockPurging normalized to %v, want 0 (disabled)", c.MaxBlockFraction)
	}
	// End to end: the sentinel must leave every block unpurged.
	w, d := testkb.Figure1()
	out, err := ResolveContext(context.Background(), w, d, Config{MaxBlockFraction: NoBlockPurging})
	if err != nil {
		t.Fatal(err)
	}
	if out.PurgedBlocks != 0 || out.PurgeThreshold != 0 {
		t.Errorf("NoBlockPurging still purged %d blocks (threshold %d)", out.PurgedBlocks, out.PurgeThreshold)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Theta: 1.5},
		{Theta: -0.1},
		{TopK: -1},
		{NameK: -2},
		{RelN: -3},
	}
	for _, c := range cases {
		if _, err := ResolveContext(context.Background(), kb.NewBuilder("a").Build(), kb.NewBuilder("b").Build(), c); err == nil {
			t.Errorf("config %+v should be rejected", c)
		} else if !strings.Contains(err.Error(), "core: invalid config") {
			t.Errorf("unexpected error text: %v", err)
		}
	}
}

func TestResolveEmptyKBs(t *testing.T) {
	out, err := ResolveContext(context.Background(), kb.NewBuilder("a").Build(), kb.NewBuilder("b").Build(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 0 {
		t.Errorf("empty KBs produced matches: %v", out.Matches)
	}
}

func TestResolveDeterministicAcrossWorkers(t *testing.T) {
	w, d := testkb.Figure1()
	ref, err := ResolveContext(context.Background(), w, d, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got, err := ResolveContext(context.Background(), w, d, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, ref.Matches) {
			t.Fatalf("matches differ with %d workers", workers)
		}
	}
}

// skewedKBs is the skewed determinism fixture (testkb.Skewed).
var skewedKBs = testkb.Skewed

// renderMatches serializes matches so worker-count runs can be compared
// byte for byte.
func renderMatches(out *Output) string {
	var sb strings.Builder
	for _, m := range out.Matches {
		fmt.Fprintf(&sb, "%d\t%d\t%s\n", m.Pair.E1, m.Pair.E2, m.Rule)
	}
	return sb.String()
}

// The dynamic chunked scheduler (used by blocking, graph construction and
// matching) must keep Resolve byte-identical for any worker count, even on
// a skew-heavy workload.
func TestResolveDeterministicOnSkewedInput(t *testing.T) {
	k1, k2 := skewedKBs(300)
	ref, err := ResolveContext(context.Background(), k1, k2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Matches) == 0 {
		t.Fatal("skewed fixture produced no matches; test is vacuous")
	}
	refBytes := renderMatches(ref)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got, err := ResolveContext(context.Background(), k1, k2, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if gotBytes := renderMatches(got); gotBytes != refBytes {
			t.Fatalf("matches not byte-identical with %d workers:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, refBytes, workers, gotBytes)
		}
	}
}

func TestResolveContextCancelled(t *testing.T) {
	w, d := testkb.Figure1()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ResolveContext(ctx, w, d, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ResolveContext on cancelled ctx = (%v, %v), want context.Canceled", out, err)
	}
	if out != nil {
		t.Error("cancelled ResolveContext must not return partial output")
	}
}

// An already-expired deadline must abort the pipeline promptly with
// ctx.Err() instead of resolving the whole (non-trivial) input.
func TestResolveContextDeadlinePrompt(t *testing.T) {
	k1, k2 := skewedKBs(400)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, err := ResolveContext(ctx, k1, k2, DefaultConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ResolveContext past deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// ResolveContext is BuildSubstrate followed by ResolveWith.
func TestResolveContextBackgroundMatchesResolve(t *testing.T) {
	ctx := context.Background()
	w, d := testkb.Figure1()
	sub, err := BuildSubstrate(ctx, w, d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ResolveWith(ctx, sub, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResolveContext(ctx, w, d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Matches, b.Matches) {
		t.Error("BuildSubstrate + ResolveWith and ResolveContext(Background) disagree")
	}
}

func TestResolveIdenticalKBs(t *testing.T) {
	// Matching a KB against a copy of itself must recover the identity
	// mapping with high recall: every description is its own best match.
	w, _ := testkb.Figure1()
	w2 := testkb.Clone(w)
	out, err := ResolveContext(context.Background(), w, w2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var gtPairs []eval.Pair
	for i := 0; i < w.Len(); i++ {
		gtPairs = append(gtPairs, eval.Pair{E1: kb.EntityID(i), E2: kb.EntityID(i)})
	}
	m := eval.Evaluate(out.Pairs(), eval.NewGroundTruth(gtPairs))
	if m.Recall < 0.75 {
		t.Errorf("identity resolution recall = %v, want ≥ 0.75 (%v)", m.Recall, out.Matches)
	}
}

func TestRuleAblationViaConfig(t *testing.T) {
	w, d := testkb.Figure1()
	rules := matching.Config{EnableR1: true, UseNeighbors: true}
	out, err := ResolveContext(context.Background(), w, d, Config{Rules: &rules})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range out.Matches {
		if m.Rule != matching.RuleName {
			t.Errorf("R1-only config produced rule %v", m.Rule)
		}
	}
}

func TestPurgingReportsStats(t *testing.T) {
	// Build KBs with a stop-word token shared by everyone, small budget
	// forces purging.
	b1 := kb.NewBuilder("A")
	b2 := kb.NewBuilder("B")
	for i := 0; i < 30; i++ {
		u1 := b1.AddEntity(string(rune('a' + i)))
		b1.AddLiteral(u1, "label", "common stopword unique"+string(rune('a'+i)))
		u2 := b2.AddEntity(string(rune('A' + i)))
		b2.AddLiteral(u2, "label", "common stopword unique"+string(rune('a'+i)))
	}
	cfg := DefaultConfig()
	cfg.MaxBlockFraction = 0.05 // blocks above 30·30·0.05 = 45 comparisons purged
	out, err := ResolveContext(context.Background(), b1.Build(), b2.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.PurgedBlocks == 0 {
		t.Errorf("expected stop-word blocks to be purged; stats: %+v", out)
	}
	// The unique tokens still match everyone correctly.
	if len(out.Matches) < 25 {
		t.Errorf("purging destroyed recall: %d matches", len(out.Matches))
	}
}
