package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the driver judges the benchmark's steadiness with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// worsening is by how much of a's median b's median is worse, negative when
// it is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRuns is the number of seeds per set: what the driver runs.
const aaRuns = 10

// runAA runs every workload over seeds 1..aaRuns twice on this tree (the
// second set in reverse workload order), then judges each end-to-end metric
// on each workload the way the driver does: the quartile spread of either
// set must stay within the metric's bound (setup_s excepted), and the second
// median must not be worse than the first by more than the bound. One traced
// run per set and workload checks that every exact count repeats. The table
// is Markdown on standard output; the runs' own reports go to standard error.
func runAA(ctx context.Context, bin string, decl declaration, d time.Duration) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(workload string, seed, trace int) (*report, error) {
		cmd := exec.CommandContext(ctx, self, "-bin", bin, "-workload", workload,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(d.Seconds()), "-trace", fmt.Sprint(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var r report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("%s seed %d: unparsable result line: %w", workload, seed, err)
		}
		return &r, nil
	}

	// values[set][workload][metric] holds one value per seed.
	var values [2]map[string]map[string][]float64
	var counts [2]map[string]map[string]metric
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		counts[set] = make(map[string]map[string]metric)
		order := slices.Clone(decl.Workloads)
		if set == 1 {
			slices.Reverse(order)
		}
		for seed := 1; seed <= aaRuns; seed++ {
			for _, w := range order {
				r, err := one(w.Name, seed, 0)
				if err != nil {
					return err
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = make(map[string][]float64)
				}
				for name, m := range r.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
			}
		}
		for _, w := range order {
			r, err := one(w.Name, 1, 1)
			if err != nil {
				return err
			}
			counts[set][w.Name] = r.Metrics
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "A/A over seeds 1–%d, %v per run, two sets on one tree\n\n", aaRuns, d)
	fmt.Fprintln(&b, "| workload | metric | unit | median A | median B | B worse by | spread A | spread B | bound | verdict |")
	fmt.Fprintln(&b, "|---|---|---|---|---|---|---|---|---|---|")
	pass := true
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			a, bb := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(bb)
			sa, sb := spread(a), spread(bb)
			worse := worsening(ma, mb, m.Better)
			verdict := "PASS"
			switch {
			case worse > m.Bound:
				verdict = "FAIL (median)"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL (spread)"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound/3:
				verdict = "PASS (spread over a third of the bound)"
			}
			pass = pass && !strings.HasPrefix(verdict, "FAIL")
			fmt.Fprintf(&b, "| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintln(&b)
	for _, w := range decl.Workloads {
		var differ []string
		for _, m := range decl.PerLayer {
			if m.Unit == "count" && counts[0][w.Name][m.Name].Value != counts[1][w.Name][m.Name].Value {
				differ = append(differ, m.Name)
			}
		}
		if len(differ) == 0 {
			fmt.Fprintf(&b, "%s: every exact count of the traced run repeats (seed 1).\n", w.Name)
		} else {
			pass = false
			fmt.Fprintf(&b, "%s: FAIL, counts differ between the two traced runs of seed 1: %s\n", w.Name, strings.Join(differ, ", "))
		}
	}
	fmt.Print(b.String())
	if !pass {
		return fmt.Errorf("the A/A runs do not agree within the bounds of BENCHMARK.json")
	}
	return nil
}
