// Scaling: the massively-parallel story of the paper (§4.1, Figure 6) —
// run the same resolution with 1, 2, 4, ... workers, showing that results
// are bit-identical while wall-clock time drops; then the memory-bounded
// variant of the same story — split E1 into 1, 2, 4, ... shards
// (ResolveSharded) and watch peak live heap shrink while the matches stay
// bit-identical.
//
// Run with: go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"minoaner"
)

func main() {
	// The YAGO-IMDb profile at 1/2 scale: the largest, most balanced pair,
	// where the paper's speedups are closest to linear.
	dataset, err := minoaner.GenerateBenchmark(
		minoaner.ScaleProfile(minoaner.YAGOIMDbProfile(), 0.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %v vs %v, %d true matches\n\n", dataset.K1, dataset.K2, dataset.GT.Len())
	fmt.Printf("%8s %10s %9s %10s %8s\n", "workers", "time", "speedup", "matching%", "F1%")

	var base time.Duration
	var refF1 float64
	for workers := 1; workers <= runtime.GOMAXPROCS(0); workers *= 2 {
		cfg := minoaner.DefaultConfig()
		cfg.Workers = workers
		start := time.Now()
		out, err := minoaner.Resolve(context.Background(), dataset.K1, dataset.K2, cfg)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if base == 0 {
			base = elapsed
		}
		m := minoaner.Evaluate(out.Pairs(), dataset.GT)
		if refF1 == 0 {
			refF1 = m.F1
		} else if m.F1 != refF1 {
			log.Fatalf("determinism violated: F1 %v at %d workers vs %v at 1",
				m.F1, workers, refF1)
		}
		matchShare := float64(out.Timings.Matching) / float64(out.Timings.Total)
		fmt.Printf("%8d %10v %9.2fx %9.1f%% %8.2f\n",
			workers, elapsed.Round(time.Millisecond),
			float64(base)/float64(elapsed), 100*matchShare, 100*m.F1)
	}
	fmt.Println("\nresults identical at every worker count (deterministic parallel execution)")

	// Sharded execution: same input, same output, bounded peak memory. Every
	// per-entity stage runs one contiguous E1 shard at a time, so the
	// E1-side candidate structures never exist all at once.
	fmt.Printf("\n%8s %10s %10s %9s\n", "shards", "time", "peak heap", "matches")
	var refMatches int
	for shards := 1; shards <= 8; shards *= 2 {
		cfg := minoaner.DefaultConfig()
		cfg.ShardCount = shards
		var out *minoaner.Output
		elapsed, peak, err := timeAndPeakHeap(func() error {
			var err error
			out, err = minoaner.ResolveSharded(context.Background(), dataset.K1, dataset.K2, cfg, shards)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		if shards == 1 {
			refMatches = len(out.Matches)
		} else if len(out.Matches) != refMatches {
			log.Fatalf("determinism violated: %d matches at %d shards vs %d at 1",
				len(out.Matches), shards, refMatches)
		}
		fmt.Printf("%8d %10v %8.1fMB %9d\n",
			shards, elapsed.Round(time.Millisecond), float64(peak)/(1<<20), len(out.Matches))
	}
	fmt.Println("\nmatches identical at every shard count (sharded execution is a memory knob, not a result knob)")
}

// timeAndPeakHeap runs fn, sampling the live heap (~1 kHz) under aggressive
// GC so the peak reflects the working set rather than collector laziness.
// The sampler misses sub-millisecond spikes, so the peak is a trajectory
// figure, not a bound.
func timeAndPeakHeap(fn func() error) (time.Duration, uint64, error) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	floor := read()
	peak := floor
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			if v := read(); v > peak {
				peak = v
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	close(done)
	<-finished
	// One final read so an allocation spike after the last poll still counts.
	if v := read(); v > peak {
		peak = v
	}
	if peak < floor {
		peak = floor
	}
	return elapsed, peak - floor, err
}
