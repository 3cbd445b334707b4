package core

import (
	"context"
	"reflect"
	"testing"

	"minoaner/internal/parallel"
)

// The overlapped (workers > 1) substrate DAG must produce a substrate
// identical to the one-worker build, which runs its chains in topological
// order, independent of which chain finishes first — and its name blocks
// must be the oracle's on the skewed fixture. Repeated multi-worker
// builds vary goroutine interleaving; the CI race step runs this test at
// workers=2 under -race, where barrier-removal races would surface.
func TestSubstrateOverlapDeterminism(t *testing.T) {
	k1, k2 := skewedKBs(300)
	ctx := context.Background()
	cfg, err := Config{Workers: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildSubstrate(ctx, parallel.New(1), k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if NameBlocksOf(t, ref).Len() == 0 {
		t.Fatal("skewed fixture produced no name blocks; test is vacuous")
	}
	if !blocksEqual(kernelBlocks(NameBlocksOf(t, ref)), nameBlocks(readSide(t, k1), readSide(t, k2), ref.nameAttrs1, ref.nameAttrs2)) {
		t.Fatal("substrate name blocks differ from the oracle's")
	}
	refTokens := ref.tokenIx.Load().Collection()
	for _, workers := range []int{2, 3, 8} {
		for rep := 0; rep < 3; rep++ {
			sub, err := buildSubstrate(ctx, parallel.New(workers), k1, k2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sub.nameAttrs1, ref.nameAttrs1) || !reflect.DeepEqual(sub.nameAttrs2, ref.nameAttrs2) {
				t.Fatalf("workers=%d: name attributes differ from sequential build", workers)
			}
			if !reflect.DeepEqual(NameBlocksOf(t, sub), NameBlocksOf(t, ref)) {
				t.Fatalf("workers=%d: name blocks differ from sequential build", workers)
			}
			if !reflect.DeepEqual(sub.tokenIx.Load().Collection(), refTokens) {
				t.Fatalf("workers=%d: token blocks differ from sequential build", workers)
			}
			if sub.purgeThreshold != ref.purgeThreshold || sub.purgedBlocks != ref.purgedBlocks {
				t.Fatalf("workers=%d: purge state differs from sequential build", workers)
			}
			if !reflect.DeepEqual(sub.ranks1, ref.ranks1) || !reflect.DeepEqual(sub.ranks2, ref.ranks2) {
				t.Fatalf("workers=%d: relation ranks differ from sequential build", workers)
			}
			if !reflect.DeepEqual(sub.top1, ref.top1) || !reflect.DeepEqual(sub.top2, ref.top2) {
				t.Fatalf("workers=%d: top-neighbor rows differ from sequential build", workers)
			}
		}
	}
}

// The reported stage clocks must add up under the DAG build: both are
// populated at any worker count, and at one worker, where the chains run one
// after another, Statistics and Blocking together fit in the build's wall
// clock.
func TestSubstrateTimingsAdditive(t *testing.T) {
	k1, k2 := skewedKBs(120)
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sub, err := buildSubstrate(context.Background(), parallel.New(workers), k1, k2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tm := sub.Timings()
		if tm.Statistics <= 0 || tm.Blocking <= 0 {
			t.Errorf("workers=%d: stage clocks not populated: %v / %v", workers, tm.Statistics, tm.Blocking)
		}
		if workers == 1 && tm.Statistics+tm.Blocking > sub.BuildDuration() {
			t.Errorf("workers=1: Statistics %v + Blocking %v exceed the build's wall clock %v", tm.Statistics, tm.Blocking, sub.BuildDuration())
		}
	}
}
