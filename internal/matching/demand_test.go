package matching_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/snapshot"
	"minoaner/internal/testkb"
)

// A batch resolve asks only for the γ₁ rows R3 and R4 can read, and
// aggregates only the E1 entities some E2 entity picks. Against a run that
// asks for every row and aggregates every unmatched entity it must agree on
// every match with its rule, on R4's removals and on the graph's edge count:
// on the skewed fixture and the four presets (one of them also with its
// sides swapped), for built, opened and read
// substrates, at 1, 2 and 8 workers, with every rule, and without R3, R4 or
// neighbor evidence. The race step of CI runs it under -race.
func TestNarrowDemandEqualsEveryRow(t *testing.T) {
	type pair struct {
		name   string
		k1, k2 *kb.KB
	}
	s1, s2 := testkb.Skewed(300)
	pairs := []pair{{"skewed", s1, s2}}
	scale := 0.1
	if testing.Short() {
		scale = 0.01
	}
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, scale))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{p.Name, d.K1, d.K2})
		if p.Name == "BBCmusic-DBpedia" {
			// With the larger KB as E1, R2 walks E2 and leaves matches whose
			// E1→E2 edge only γ may hold: R4 reads rows R3 does not.
			pairs = append(pairs, pair{p.Name + " swapped", d.K2, d.K1})
		}
	}
	full := matching.DefaultConfig()
	without := func(drop func(c *matching.Config)) matching.Config {
		c := full
		drop(&c)
		return c
	}
	configs := map[string]matching.Config{
		"Full":        full,
		"-R3":         without(func(c *matching.Config) { c.EnableR3 = false }),
		"-R4":         without(func(c *matching.Config) { c.EnableR4 = false }),
		"NoNeighbors": without(func(c *matching.Config) { c.UseNeighbors = false }),
	}
	ctx := context.Background()
	for _, p := range pairs {
		built, err := core.BuildSubstrate(ctx, p.k1, p.k2, core.Config{Workers: 2})
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
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		read, err := snapshot.ReadSubstrate(img)
		if err != nil {
			t.Fatal(err)
		}
		subs := []struct {
			kind string
			sub  *core.Substrate
		}{{"built", built}, {"opened", opened.Substrate()}, {"read", read.Substrate()}}
		for _, s := range subs {
			for name, rules := range configs {
				for _, workers := range []int{1, 2, 8} {
					at := fmt.Sprintf("%s %s %s workers=%d", p.name, s.kind, name, workers)
					cfg := core.Config{Workers: workers, Rules: &rules}
					restore := matching.DemandEveryRow()
					every, err := core.ResolveWith(ctx, s.sub, cfg)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if len(every.Matches) == 0 {
						t.Fatalf("%s: no matches; test is vacuous", at)
					}
					narrow, err := core.ResolveWith(ctx, s.sub, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(narrow.Matches, every.Matches) {
						t.Errorf("%s: %d matches over the narrow demand, %d over every row", at, len(narrow.Matches), len(every.Matches))
					}
					if narrow.RemovedByR4 != every.RemovedByR4 || narrow.GraphEdges != every.GraphEdges {
						t.Errorf("%s: R4 removed %d and %d graph edges over the narrow demand, %d and %d over every row",
							at, narrow.RemovedByR4, narrow.GraphEdges, every.RemovedByR4, every.GraphEdges)
					}
				}
			}
		}
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
