package core_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/graph"
	"minoaner/internal/matching"
	"minoaner/internal/parallel"
	"minoaner/internal/snapshot"
)

// The batch resolve computes only the E1-side γ rows R3 and R4 read; the
// reference materializes every row (graph.BuildTimedCtx) and matches over
// all of them (matching.RunCtx). Both must agree on every match with its
// rule, on R4's removals and on the graph's edge count, for every Table-4
// configuration and worker count, at the substrate's K and at a K a private
// graph is built for — on a built substrate and on one reopened from its
// snapshot. The race step of CI runs this at workers=2, where the row
// demand is read while the rows fill.
func TestStreamedResolveMatchesMaterialized(t *testing.T) {
	full := matching.DefaultConfig()
	without := func(drop func(c *matching.Config)) matching.Config {
		c := full
		drop(&c)
		return c
	}
	table4 := map[string]matching.Config{
		"Full":        full,
		"-R1":         without(func(c *matching.Config) { c.EnableR1 = false }),
		"-R2":         without(func(c *matching.Config) { c.EnableR2 = false }),
		"-R3":         without(func(c *matching.Config) { c.EnableR3 = false }),
		"-R4":         without(func(c *matching.Config) { c.EnableR4 = false }),
		"NoNeighbors": without(func(c *matching.Config) { c.UseNeighbors = false }),
	}
	ctx := context.Background()
	// The BBC pair is resolved with its larger KB as E1, so that R2 walks
	// E2 and leaves matches whose E1→E2 edge only γ may hold: the case in
	// which R4 needs the row of an entity R3 does not.
	for _, c := range []struct {
		profile datagen.Profile
		swap    bool
	}{
		{datagen.Scale(datagen.YAGOIMDb(), 0.04), false},
		{datagen.Scale(datagen.BBCMusicDBpedia(), 0.08), true},
	} {
		profile := c.profile
		d, err := datagen.Generate(profile)
		if err != nil {
			t.Fatal(err)
		}
		k1, k2 := d.K1, d.K2
		if c.swap {
			k1, k2 = k2, k1
		}
		built, err := core.BuildSubstrate(ctx, k1, k2, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "pair.snap")
		if err := snapshot.WriteSubstrateFile(path, built); err != nil {
			t.Fatal(err)
		}
		opened, err := snapshot.OpenSubstrate(path)
		if err != nil {
			t.Fatal(err)
		}
		defer opened.Close()
		for kind, sub := range map[string]*core.Substrate{"built": built, "reopened": opened.Substrate()} {
			for _, k := range []int{sub.Config().TopK, 2} {
				top1, top2 := sub.TopNeighbors()
				ix, err := sub.TokenIndex(ctx)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := graph.BuildTimedCtx(ctx, parallel.Sequential(), graph.Input{
					K1: sub.K1(), K2: sub.K2(), NameBlocks: core.NameBlocksOf(t, sub), TokenIndex: ix,
					Top1: top1, Top2: top2, K: k,
				})
				if err != nil {
					t.Fatal(err)
				}
				for name, rules := range table4 {
					ref, err := matching.RunCtx(ctx, parallel.Sequential(), g, sub.K1(), sub.K2(), rules)
					if err != nil {
						t.Fatal(err)
					}
					if len(ref.Matches) == 0 {
						t.Fatalf("%s %s %s: no matches; test is vacuous", profile.Name, kind, name)
					}
					for _, workers := range []int{1, 2} {
						out, err := core.ResolveWith(ctx, sub, core.Config{TopK: k, Rules: &rules, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						at := fmt.Sprintf("%s %s K=%d %s workers=%d", profile.Name, kind, k, name, workers)
						if !reflect.DeepEqual(out.Matches, ref.Matches) {
							t.Errorf("%s: %d streamed matches differ from the %d materialized ones", at, len(out.Matches), len(ref.Matches))
						}
						if out.RemovedByR4 != ref.RemovedByR4 {
							t.Errorf("%s: R4 removed %d, materialized %d", at, out.RemovedByR4, ref.RemovedByR4)
						}
						if out.GraphEdges != g.Edges() {
							t.Errorf("%s: %d graph edges, materialized %d", at, out.GraphEdges, g.Edges())
						}
					}
				}
			}
		}
	}
}
