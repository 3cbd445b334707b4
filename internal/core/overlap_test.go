package core

import (
	"context"
	"reflect"
	"testing"

	"minoaner/internal/blocking"
	"minoaner/internal/parallel"
)

// The overlapped (workers > 1) substrate DAG must produce a substrate
// identical to the sequential topological build, independent of which chain
// finishes first — and its name blocks must equal the retained
// string-grouped reference on the skewed fixture. Repeated multi-worker
// builds vary goroutine interleaving; the CI race step runs this test at
// workers=2 under -race, where barrier-removal races would surface.
func TestSubstrateOverlapDeterminism(t *testing.T) {
	k1, k2 := skewedKBs(300)
	ctx := context.Background()
	cfg, err := Config{Workers: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildSubstrate(ctx, parallel.New(1), k1, k2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NameBlocks().Len() == 0 {
		t.Fatal("skewed fixture produced no name blocks; test is vacuous")
	}
	mapRef, err := blocking.NameBlocksMapRef(ctx, parallel.New(1), k1, k2, ref.nameAttrs1, ref.nameAttrs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.NameBlocks(), mapRef) {
		t.Fatal("substrate name blocks differ from the string-grouped reference")
	}
	refTokens := ref.tokenIx.Load().Collection()
	for _, workers := range []int{2, 3, 8} {
		for rep := 0; rep < 3; rep++ {
			sub, err := buildSubstrate(ctx, parallel.New(workers), k1, k2, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sub.nameAttrs1, ref.nameAttrs1) || !reflect.DeepEqual(sub.nameAttrs2, ref.nameAttrs2) {
				t.Fatalf("workers=%d: name attributes differ from sequential build", workers)
			}
			if !reflect.DeepEqual(sub.NameBlocks(), ref.NameBlocks()) {
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

// The reported stage timings must stay additive under the DAG build:
// Statistics is the sum of its three sub-clocks and Blocking the sum of its
// two, at any worker count — the contract the bench gate's columns rely on.
func TestSubstrateTimingsAdditive(t *testing.T) {
	k1, k2 := skewedKBs(120)
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sub, err := buildSubstrate(context.Background(), parallel.New(workers), k1, k2, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		tm := sub.timings
		if tm.Statistics != tm.StatsAttributes+tm.StatsRelations+tm.StatsTopNeighbors {
			t.Errorf("workers=%d: Statistics %v != sum of sub-stages", workers, tm.Statistics)
		}
		if tm.Blocking != tm.BlockingName+tm.BlockingToken {
			t.Errorf("workers=%d: Blocking %v != BlockingName+BlockingToken", workers, tm.Blocking)
		}
		if tm.BlockingName <= 0 || tm.BlockingToken <= 0 {
			t.Errorf("workers=%d: blocking sub-clocks not populated: %v / %v", workers, tm.BlockingName, tm.BlockingToken)
		}
	}
}
