package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count); xs must not be empty.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q ≤ 1) of the ascending slice s by
// the nearest-rank rule.
func percentile(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tail returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it in the ascending slice s, or the maximum when s is too
// short for any of them, together with the name of what it returned.
func tail(s []float64) (float64, string) {
	n := len(s)
	for _, pct := range []int{99, 95, 90} {
		rank := (n*pct + 99) / 100 // nearest rank, in whole numbers
		if n-rank >= 10 {
			return s[rank-1], fmt.Sprintf("p%d", pct)
		}
	}
	return s[n-1], "max"
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// readMatches parses a matches TSV (uri1<TAB>uri2 per line) as the CLI
// prints it.
func readMatches(path string) ([][2]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		u1, u2, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("%s: line %d is not uri1<TAB>uri2", path, len(out)+1)
		}
		out = append(out, [2]string{u1, u2})
	}
	return out, sc.Err()
}

// digest is the sha256 over the sorted uri1<TAB>uri2 lines of a match set:
// equal digests mean equal match sets whatever order they were printed in.
func digest(matches [][2]string) string {
	lines := make([]string, len(matches))
	for i, m := range matches {
		lines[i] = m[0] + "\t" + m[1] + "\n"
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// f1 scores a match set against the generated ground truth.
func f1(matches [][2]string, gt map[string]string) float64 {
	if len(matches) == 0 || len(gt) == 0 {
		return 0
	}
	tp := 0
	for _, m := range matches {
		if gt[m[0]] == m[1] {
			tp++
		}
	}
	p, r := float64(tp)/float64(len(matches)), float64(tp)/float64(len(gt))
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
