package main

import (
	"context"
	"path/filepath"
	"slices"
	"time"
)

// Floors under the accuracy of a healthy run. The generated pairs resolve
// at F1 0.966–0.977 and answer 97–99% of replayed queries with the true
// partner first; a run below these is broken, not noisy.
const (
	minF1          = 0.95
	minReplayHits  = 0.95
	minDescribeHit = 0.85
	// minReps is the fewest repetitions a reported median rests on, however
	// short -seconds is.
	minReps = 3
)

// runBatch measures the CLI on one pair: a run that also saves the snapshot,
// then cold runs from the N-Triples files alternating with warm runs from
// that snapshot until the measuring time is used up. Every run's match set
// must be the same.
func runBatch(ctx context.Context, e *env, w workload, o options, r *report) error {
	t0 := time.Now()
	p, err := writePair(ctx, e.dir, "main", w.main.scaled(o.scale), o.seed)
	if err != nil {
		return err
	}
	if err := o.damage("e2", p.e2); err != nil {
		return err
	}
	r.set("setup_s", seconds(time.Since(t0)))
	r.note("pair: %d entities, %d triples, %.1f MB of N-Triples", p.entities, p.triples, float64(p.bytes)/mb)

	snap := filepath.Join(e.dir, "main.snap")
	var want string // digest of the first run; every later run must repeat it
	run := func(tag string, args ...string) (usage, error) {
		out := filepath.Join(e.dir, tag+".tsv")
		u, err := e.runCLI(ctx, out, args...)
		if err != nil {
			return u, err
		}
		matches, err := readMatches(out)
		if err != nil {
			return u, err
		}
		d := digest(matches)
		if want == "" {
			want = d
			score := f1(matches, p.gt)
			r.set("accuracy_ratio", score)
			r.check(score >= minF1, "F1 %.4f is under the floor %.2f", score, minF1)
			r.note("%d matches, digest %s", len(matches), d[:16])
		}
		same := d == want
		r.check(same, "%s run printed match digest %s, the first run %s", tag, d[:16], want[:16])
		r.ops(1, btoi(!same))
		return u, nil
	}

	start := time.Now()
	save, err := run("save", "-e1", p.e1, "-e2", p.e2, "-quiet", "-save-snapshot", snap)
	if err != nil {
		return err
	}
	snapBytes, err := syncFile(snap)
	if err != nil {
		return err
	}
	if err := o.damage("snapshot", snap); err != nil {
		return err
	}
	var cold, warm []usage
	for {
		c, err := run("cold", "-e1", p.e1, "-e2", p.e2, "-quiet")
		if err != nil {
			return err
		}
		wm, err := run("warm", "-snapshot", snap, "-quiet")
		if err != nil {
			return err
		}
		cold, warm = append(cold, c), append(warm, wm)
		if len(cold) >= minReps && time.Since(start)+c.wall+wm.wall > o.seconds {
			break
		}
	}

	column := func(us []usage, f func(usage) float64) []float64 {
		out := make([]float64, len(us))
		for i, u := range us {
			out[i] = f(u)
		}
		return out
	}
	coldMS := column(cold, func(u usage) float64 { return millis(u.wall) })
	r.set("latency_p50_ms", median(coldMS))
	r.set("cold_build_s", seconds(save.wall))
	r.set("warm_start_s", median(column(warm, func(u usage) float64 { return seconds(u.wall) })))
	r.set("peak_rss_mb", median(column(cold, func(u usage) float64 { return u.rssMB })))
	r.set("snapshot_file_mb", float64(snapBytes)/mb)
	r.note("%d cold runs (slowest %.0f ms, median %.2f s CPU) and %d warm runs, 1 saving run of %.0f MB peak RSS",
		len(cold), slices.Max(coldMS), median(column(cold, func(u usage) float64 { return seconds(u.cpu) })), len(warm), save.rssMB)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
