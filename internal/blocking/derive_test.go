package blocking_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/snapshot"
	"minoaner/internal/testkb"
)

// A substrate read back from its snapshot derives its token index from the
// KB token columns. The derived index must be the built one — every column,
// the weights bit for bit, the live count — with the same purge, on the four
// presets at ×0.1 and on Figure 1's pair (two dictionaries, merged by
// string), built and derived at one and at two processors.
func TestDerivedTokenIndexEqualsBuilt(t *testing.T) {
	type pair struct {
		name   string
		k1, k2 *kb.KB
	}
	f1, f2 := testkb.Figure1()
	pairs := []pair{{"Figure 1", f1, f2}}
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{p.Name, d.K1, d.K2})
	}
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range pairs {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			// Workers 0: the build and the derive follow GOMAXPROCS.
			built, err := core.BuildSubstrate(ctx, p.k1, p.k2, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if err := snapshot.WriteSubstrate(&img, built); err != nil {
				t.Fatal(err)
			}
			read, err := snapshot.ReadSubstrate(img.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			opened := read.Substrate()
			want, err := built.TokenIndex(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := opened.TokenIndex(ctx)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: derive: %v", p.name, procs, err)
			}
			if want.Live() == 0 {
				t.Fatalf("%s: no live token block; test is vacuous", p.name)
			}
			if opened.PurgedBlocks() != built.PurgedBlocks() || opened.PurgeThreshold() != built.PurgeThreshold() {
				t.Errorf("%s, GOMAXPROCS=%d: purge %d at %d, built %d at %d", p.name, procs,
					opened.PurgedBlocks(), opened.PurgeThreshold(), built.PurgedBlocks(), built.PurgeThreshold())
			}
			if diff := columnsDiffer(got.Columns(), want.Columns()); diff != "" {
				t.Errorf("%s, GOMAXPROCS=%d: derived index differs from the built one in %s", p.name, procs, diff)
			}
		}
	}
}

// Building the purged index in one go must give NewTokenIndexCtx followed
// by PurgeAbove — the same purged count, weights bit for bit, live tokens,
// comparisons and token blocks — whatever the worker count and threshold
// (none, the default budget, and one that purges most blocks). Without a
// threshold the two are the same columns; with one, the index holds the
// members of its live blocks and no others.
func TestPurgedBuildEqualsPurgeAbove(t *testing.T) {
	f1, f2 := testkb.Figure1()
	d, err := datagen.Generate(datagen.Scale(datagen.YAGOIMDb(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range []struct {
		name   string
		k1, k2 *kb.KB
	}{{"Figure 1", f1, f2}, {"YAGO-IMDb", d.K1, d.K2}} {
		budget := blocking.ComparisonBudget(p.k1.Len(), p.k2.Len(), core.DefaultConfig().MaxBlockFraction)
		for _, threshold := range []int64{0, budget, 1} {
			for _, workers := range []int{1, 2, 3} {
				eng := parallel.New(workers)
				full, err := blocking.NewTokenIndexCtx(ctx, eng, p.k1, p.k2)
				if err != nil {
					t.Fatal(err)
				}
				want, wantPurged := full.PurgeAbove(threshold)
				got, purged, err := blocking.NewPurgedTokenIndexCtx(ctx, eng, p.k1, p.k2, threshold)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s, threshold %d, workers %d", p.name, threshold, workers)
				blocks := want.Collection()
				if purged != wantPurged || got.Live() != want.Live() || got.TotalComparisons() != want.TotalComparisons() ||
					!reflect.DeepEqual(got.Collection(), blocks) {
					t.Errorf("%s: %d purged, %d live, %d comparisons; PurgeAbove %d, %d, %d, or other blocks", what,
						purged, got.Live(), got.TotalComparisons(), wantPurged, want.Live(), want.TotalComparisons())
				}
				g, w := got.Columns(), want.Columns()
				if threshold == 0 {
					if diff := columnsDiffer(g, w); diff != "" {
						t.Errorf("%s: differs from NewTokenIndexCtx in %s", what, diff)
					}
					continue
				}
				var live1, live2 int
				for _, b := range blocks.Blocks {
					live1, live2 = live1+len(b.E1), live2+len(b.E2)
				}
				if len(g.Mem1) != live1 || len(g.Mem2) != live2 {
					t.Errorf("%s: %d and %d members, the live blocks' %d and %d", what, len(g.Mem1), len(g.Mem2), live1, live2)
				}
				g.Off1, g.Off2, g.Mem1, g.Mem2 = w.Off1, w.Off2, w.Mem1, w.Mem2
				if diff := columnsDiffer(g, w); diff != "" {
					t.Errorf("%s: differs from PurgeAbove in %s", what, diff)
				}
			}
		}
	}
}

// columnsDiffer names the first column in which two indexes differ, or
// returns "" if none does. Dictionaries compare by their strings in ID
// order, weights by their bits.
func columnsDiffer(a, b blocking.Columns) string {
	if a.Dict.Len() != b.Dict.Len() {
		return "dictionary size"
	}
	for id := range a.Dict.Len() {
		if a.Dict.TokenString(kb.TokenID(id)) != b.Dict.TokenString(kb.TokenID(id)) {
			return "dictionary"
		}
	}
	if len(a.Weight) != len(b.Weight) {
		return "weights"
	}
	for s := range a.Weight {
		if math.Float64bits(a.Weight[s]) != math.Float64bits(b.Weight[s]) {
			return "weights"
		}
	}
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"t1", a.T1, b.T1}, {"t2", a.T2, b.T2},
		{"e1 offsets", a.Off1, b.Off1}, {"e2 offsets", a.Off2, b.Off2},
		{"e1 members", a.Mem1, b.Mem1}, {"e2 members", a.Mem2, b.Mem2},
		{"live count", a.Live, b.Live},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			return c.what
		}
	}
	return ""
}
