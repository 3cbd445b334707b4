package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/eval"
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/stats"
)

// Figure2Point is one ground-truth match plotted in the paper's Figure 2:
// its normalized value similarity (weighted Jaccard over EF weights, x-axis)
// and the maximum value similarity among its neighbor pairs (y-axis).
// HasName marks the bordered points (matches agreeing on a name).
type Figure2Point struct {
	Dataset     string
	Pair        eval.Pair
	ValueSim    float64
	NeighborSim float64
	HasName     bool
	Category    string
}

// Figure2 computes the similarity distribution of the ground-truth matches
// of every dataset.
func (s *Suite) Figure2() ([]Figure2Point, error) {
	eng := parallel.New(s.opts.Workers)
	var points []Figure2Point
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		ef1 := stats.BuildEF(eng, d.K1)
		ef2 := stats.BuildEF(eng, d.K2)
		wj := func(a *kb.Description, b *kb.Description) float64 {
			return weightedJaccard(a, b, ef1, ef2)
		}
		for _, p := range d.GT.Pairs() {
			d1, d2 := d.K1.Entity(p.E1), d.K2.Entity(p.E2)
			pt := Figure2Point{
				Dataset:  name,
				Pair:     p,
				ValueSim: wj(d1, d2),
			}
			// Max value similarity over the neighbor cross product.
			for _, n1 := range d.K1.Neighbors(p.E1) {
				for _, n2 := range d.K2.Neighbors(p.E2) {
					if v := wj(d.K1.Entity(n1), d.K2.Entity(n2)); v > pt.NeighborSim {
						pt.NeighborSim = v
					}
				}
			}
			mp := d.Profiles[p]
			pt.HasName = mp.HasUniqueName
			pt.Category = mp.Category.String()
			points = append(points, pt)
		}
	}
	return points, nil
}

// weightedJaccard is the normalized value similarity of Figure 2 [21]:
// Σ_{t ∈ ∩} w(t) / Σ_{t ∈ ∪} w(t) with w(t) = 1/log2(EF1·EF2+1). It walks
// the interned token IDs (ordered by token string) so nothing is
// re-materialized or re-hashed per pair.
func weightedJaccard(a, b *kb.Description, ef1, ef2 *stats.EFIndex) float64 {
	ta, tb := a.TokenIDs(), b.TokenIDs()
	d1, d2 := a.Dict(), b.Dict()
	weigh := func(dict *kb.Interner, id kb.TokenID, s string) float64 {
		return stats.TokenWeight(stats.EFOf(ef1, dict, id, s), stats.EFOf(ef2, dict, id, s))
	}
	var inter, union float64
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		sa, sb := d1.TokenString(ta[i]), d2.TokenString(tb[j])
		switch {
		case sa < sb:
			union += weigh(d1, ta[i], sa)
			i++
		case sa > sb:
			union += weigh(d2, tb[j], sb)
			j++
		default:
			w := weigh(d1, ta[i], sa)
			inter += w
			union += w
			i++
			j++
		}
	}
	for ; i < len(ta); i++ {
		union += weigh(d1, ta[i], d1.TokenString(ta[i]))
	}
	for ; j < len(tb); j++ {
		union += weigh(d2, tb[j], d2.TokenString(tb[j]))
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// FormatFigure2 renders the per-dataset summary of the similarity
// distribution (mean x / y per quadrant), plus a CSV-style sample that can
// be plotted directly.
func FormatFigure2(points []Figure2Point) string {
	var b strings.Builder
	type agg struct {
		n                  int
		sumV, sumN         float64
		strong, nearly     int
		withName, lowValue int
	}
	byDS := map[string]*agg{}
	var order []string
	for _, p := range points {
		a, ok := byDS[p.Dataset]
		if !ok {
			a = &agg{}
			byDS[p.Dataset] = a
			order = append(order, p.Dataset)
		}
		a.n++
		a.sumV += p.ValueSim
		a.sumN += p.NeighborSim
		if p.ValueSim < 0.2 {
			a.lowValue++
		}
		if p.HasName {
			a.withName++
		}
		switch p.Category {
		case "strong":
			a.strong++
		case "nearly":
			a.nearly++
		}
	}
	fmt.Fprintf(&b, "%-18s %8s %10s %10s %10s %10s %10s\n",
		"Dataset", "matches", "meanValue", "meanNeigh", "lowValue%", "named%", "nearly%")
	for _, name := range order {
		a := byDS[name]
		fmt.Fprintf(&b, "%-18s %8d %10.3f %10.3f %10.1f %10.1f %10.1f\n",
			name, a.n, a.sumV/float64(a.n), a.sumN/float64(a.n),
			100*float64(a.lowValue)/float64(a.n),
			100*float64(a.withName)/float64(a.n),
			100*float64(a.nearly)/float64(a.n))
	}
	return b.String()
}

// Figure2CSV emits the full point series as CSV (dataset,valueSim,
// neighborSim,hasName,category) for external plotting.
func Figure2CSV(points []Figure2Point) string {
	var b strings.Builder
	b.WriteString("dataset,valueSim,neighborSim,hasName,category\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%t,%s\n", p.Dataset, p.ValueSim, p.NeighborSim, p.HasName, p.Category)
	}
	return b.String()
}

// Figure5Point is one point of the sensitivity analysis: the F1 of the full
// pipeline with one parameter varied and the rest at their defaults
// (k, K, N, θ) = (2, 15, 3, 0.6).
type Figure5Point struct {
	Dataset   string
	Parameter string
	Value     float64
	F1        float64
}

// Figure5Sweeps defines the swept values, matching the paper's ranges.
var Figure5Sweeps = map[string][]float64{
	"k":     {1, 2, 3, 4, 5},
	"K":     {5, 10, 15, 20, 25},
	"N":     {1, 2, 3, 4, 5},
	"theta": {0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
}

// Figure5 runs the sensitivity analysis of the four MinoanER parameters.
func (s *Suite) Figure5() ([]Figure5Point, error) {
	var points []Figure5Point
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		for _, param := range []string{"k", "K", "N", "theta"} {
			for _, v := range Figure5Sweeps[param] {
				cfg := core.DefaultConfig()
				cfg.Workers = s.opts.Workers
				switch param {
				case "k":
					cfg.NameK = int(v)
				case "K":
					cfg.TopK = int(v)
				case "N":
					cfg.RelN = int(v)
				case "theta":
					cfg.Theta = v
				}
				out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
				if err != nil {
					return nil, err
				}
				m := eval.Evaluate(out.Pairs(), d.GT)
				points = append(points, Figure5Point{name, param, v, m.F1})
			}
		}
	}
	return points, nil
}

// FormatFigure5 renders the sensitivity series, one line per (dataset,
// parameter).
func FormatFigure5(points []Figure5Point) string {
	var b strings.Builder
	type key struct{ ds, param string }
	series := map[key][]Figure5Point{}
	var order []key
	for _, p := range points {
		k := key{p.Dataset, p.Parameter}
		if _, ok := series[k]; !ok {
			order = append(order, k)
		}
		series[k] = append(series[k], p)
	}
	for _, k := range order {
		fmt.Fprintf(&b, "%-18s %-6s", k.ds, k.param)
		for _, p := range series[k] {
			fmt.Fprintf(&b, "  %g:%.3f", p.Value, p.F1)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure6Point is one scalability measurement: wall-clock time and speedup
// of the pipeline at a given worker count, plus the share of time spent in
// the matching phase (§6.2 reports 20–45%).
type Figure6Point struct {
	Dataset       string
	Workers       int
	Seconds       float64
	Speedup       float64
	MatchingShare float64
	F1            float64
}

// Figure6Workers returns the swept worker counts: powers of two up to the
// machine's cores (the paper sweeps 1–72 cluster cores).
func Figure6Workers() []int {
	max := runtime.GOMAXPROCS(0)
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// Figure6 measures running time and speedup per worker count on every
// dataset. Results must be identical across worker counts (the determinism
// property); F1 is recorded to prove it.
func (s *Suite) Figure6() ([]Figure6Point, error) {
	var points []Figure6Point
	for _, name := range s.Names() {
		d, err := s.Dataset(name)
		if err != nil {
			return nil, err
		}
		var base float64
		for _, w := range Figure6Workers() {
			cfg := core.DefaultConfig()
			cfg.Workers = w
			start := time.Now()
			out, err := core.ResolveContext(context.Background(), d.K1, d.K2, cfg)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start).Seconds()
			if base == 0 {
				base = elapsed
			}
			m := eval.Evaluate(out.Pairs(), d.GT)
			share := 0.0
			if out.Timings.Total > 0 {
				share = float64(out.Timings.Matching) / float64(out.Timings.Total)
			}
			points = append(points, Figure6Point{
				Dataset: name, Workers: w, Seconds: elapsed,
				Speedup: base / elapsed, MatchingShare: share, F1: m.F1,
			})
		}
	}
	return points, nil
}

// FormatFigure6 renders the scalability series.
func FormatFigure6(points []Figure6Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %10s %9s %10s %7s\n",
		"Dataset", "workers", "time(s)", "speedup", "match%", "F1%")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %8d %10.3f %9.2f %10.1f %7.2f\n",
			p.Dataset, p.Workers, p.Seconds, p.Speedup, 100*p.MatchingShare, 100*p.F1)
	}
	return b.String()
}
