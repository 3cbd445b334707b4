package snapshot

import (
	"context"
	"encoding/json"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/parallel"
)

// The γ₁ edge count a snapshot stores is the one the graph build takes from
// its E2-side pass. On every preset it must equal the length of the E1-side
// rows materialized whole (graph.BuildTimedCtx), and the edge count of the
// materialized graph must hold them once, as must the edge count a
// resolution over the opened file reports.
func TestStoredGamma1CountEqualsMaterialized(t *testing.T) {
	ctx := context.Background()
	for _, name := range presetsUnderTest(t) {
		sub := buildPreset(t, name)
		img := snapshotBytes(t, sub)
		var meta metaV1
		if err := json.Unmarshal(parsed(t, img).sections[secMeta], &meta); err != nil {
			t.Fatal(err)
		}
		top1, top2 := sub.TopNeighbors()
		ix, err := sub.TokenIndex(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nameBlocks, err := sub.NameBlocks()
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := graph.BuildTimedCtx(ctx, parallel.New(2), graph.Input{
			K1: sub.K1(), K2: sub.K2(), NameBlocks: nameBlocks, TokenIndex: ix,
			Top1: top1, Top2: top2, K: sub.Config().TopK,
		})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Gamma1Edges == nil {
			t.Fatalf("%s: meta stores no γ₁ count", name)
		}
		if stored := *meta.Gamma1Edges; stored == 0 || stored != len(g.Gamma1.Flat) {
			t.Errorf("%s: stored γ₁ count %d, materialized rows hold %d", name, stored, len(g.Gamma1.Flat))
		}
		held := len(g.Alpha1.Flat) + len(g.Alpha2.Flat) + len(g.Beta1.Flat) + len(g.Beta2.Flat) + len(g.Gamma1.Flat) + len(g.Gamma2.Flat)
		if g.Edges() != held {
			t.Errorf("%s: Edges() = %d, the materialized rows hold %d", name, g.Edges(), held)
		}
		read, err := ReadSubstrate(img)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.ResolveWith(ctx, read.Substrate(), core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.GraphEdges != held {
			t.Errorf("%s: the opened pair reports %d graph edges, the materialized graph holds %d", name, out.GraphEdges, held)
		}
	}
}
