// Command minoaner resolves the entities of two knowledge bases and prints
// the matches as tab-separated URI pairs.
//
// Usage:
//
//	minoaner -e1 kb1.nt -e2 kb2.nt [-format nt|tsv] [-gt truth.tsv]
//	         [-k 2] [-K 15] [-N 3] [-theta 0.6] [-workers 0] [-rules]
//	         [-timeout 30s] [-query URI] [-json] [-save-snapshot pair.snap]
//	minoaner -snapshot pair.snap [-query URI] [-json] [...]
//
// With -gt (a TSV of uri1<TAB>uri2 true matches) it also reports precision,
// recall and F1. With -rules each output line is annotated with the
// matching rule (R1–R3) that produced it. With -timeout the resolution is
// aborted (exit status 1) once the duration elapses.
//
// With -query URI the batch run is replaced by a single per-entity query
// against the build-once substrate: a URI present in E1 is replayed through
// the query path; any other URI describes a new entity whose statements are
// read from stdin as predicate<TAB>object lines (objects that are not E1
// URIs are treated as literal values). Candidates print as
// uri<TAB>score<TAB>rule, or as a JSON array with -json.
//
// With -save-snapshot the build-once substrate (including the prewarmed
// query state) is persisted to the given path after construction; with
// -snapshot a previously saved snapshot replaces -e1/-e2 entirely — the
// substrate is memory-mapped and query-ready without rebuilding, and both
// batch resolution and -query run against it with identical output.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"minoaner"
)

func main() {
	var (
		e1Path  = flag.String("e1", "", "path to the first KB (required)")
		e2Path  = flag.String("e2", "", "path to the second KB (required)")
		format  = flag.String("format", "nt", "input format: nt (N-Triples) or tsv")
		gtPath  = flag.String("gt", "", "optional ground truth TSV (uri1<TAB>uri2) for evaluation")
		nameK   = flag.Int("k", 2, "name attributes per KB (paper parameter k)")
		topK    = flag.Int("K", 15, "candidates per entity per weight (paper parameter K)")
		relN    = flag.Int("N", 3, "most important relations per entity (paper parameter N)")
		theta   = flag.Float64("theta", 0.6, "rank-aggregation trade-off θ in (0,1)")
		workers = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		rules   = flag.Bool("rules", false, "annotate matches with the producing rule")
		quiet   = flag.Bool("quiet", false, "suppress the summary on stderr")
		timeout = flag.Duration("timeout", 0, "abort resolution after this duration (0 = no limit)")
		query   = flag.String("query", "", "resolve one entity (an E1 URI, or a new URI with statements on stdin) instead of the batch pipeline")
		jsonOut = flag.Bool("json", false, "with -query, emit candidates as a JSON array")
		snapIn  = flag.String("snapshot", "", "load the substrate from this snapshot file instead of building from -e1/-e2")
		snapOut = flag.String("save-snapshot", "", "persist the built substrate (with prewarmed query state) to this snapshot file")
	)
	flag.Parse()
	if *snapIn == "" && (*e1Path == "" || *e2Path == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *snapIn != "" && *snapOut != "" {
		exitOn(fmt.Errorf("-snapshot and -save-snapshot are mutually exclusive"))
	}

	cfg := minoaner.DefaultConfig()
	cfg.NameK = *nameK
	cfg.TopK = *topK
	cfg.RelN = *relN
	cfg.Theta = *theta
	cfg.Workers = *workers

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		k1, k2 *minoaner.KB
		sub    *minoaner.Substrate
	)
	if *snapIn != "" {
		start := time.Now()
		loaded, err := minoaner.OpenSnapshot(*snapIn)
		exitOn(err)
		sub = loaded.Substrate()
		k1, k2 = sub.K1(), sub.K2()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "minoaner: snapshot %s: %s vs %s loaded in %v\n",
				*snapIn, k1.Name(), k2.Name(), time.Since(start).Round(time.Microsecond))
		}
	} else {
		var (
			err     error
			skipped [2]int
		)
		// -timeout bounds resolution, not loading.
		k1, k2, skipped, err = minoaner.LoadPair(context.Background(), *e1Path, *e2Path, *format, true)
		exitOn(err)
		for i, path := range []string{*e1Path, *e2Path} {
			if skipped[i] > 0 {
				fmt.Fprintf(os.Stderr, "minoaner: %s: skipped %d malformed lines\n", path, skipped[i])
			}
		}
		if *snapOut != "" || *query != "" {
			sub, err = minoaner.BuildSubstrate(ctx, k1, k2, cfg)
			exitOn(err)
		}
		if *snapOut != "" {
			exitOn(minoaner.WriteSnapshotFile(*snapOut, sub))
			if !*quiet {
				fmt.Fprintf(os.Stderr, "minoaner: snapshot saved to %s\n", *snapOut)
			}
		}
	}

	if *query != "" {
		runQuery(ctx, k1, sub, cfg, *query, *jsonOut, *quiet)
		return
	}

	var (
		out *minoaner.Output
		err error
	)
	if sub != nil {
		out, err = minoaner.ResolveWith(ctx, sub, cfg)
	} else {
		out, err = minoaner.Resolve(ctx, k1, k2, cfg)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		exitOn(fmt.Errorf("resolution exceeded -timeout %v", *timeout))
	}
	exitOn(err)

	w := bufio.NewWriter(os.Stdout)
	var line []byte
	for _, m := range out.Matches {
		line = append(append(append(line[:0], k1.URI(m.Pair.E1)...), '\t'), k2.URI(m.Pair.E2)...)
		if *rules {
			line = append(append(line, '\t'), m.Rule.String()...)
		}
		line = append(line, '\n')
		_, err := w.Write(line)
		exitOn(err)
	}
	exitOn(w.Flush())

	if !*quiet {
		fmt.Fprintf(os.Stderr, "minoaner: %s vs %s: %d matches (graph %d edges, purged %d blocks) in %v\n",
			k1.Name(), k2.Name(), len(out.Matches), out.GraphEdges, out.PurgedBlocks, out.Timings.Total)
	}
	if *gtPath != "" {
		gt, skipped, err := loadGroundTruth(k1, k2, *gtPath)
		exitOn(err)
		var pairs []minoaner.Pair
		for _, m := range out.Matches {
			pairs = append(pairs, m.Pair)
		}
		m := minoaner.Evaluate(pairs, gt)
		fmt.Fprintf(os.Stderr, "minoaner: %s (skipped %d unknown ground-truth URIs)\n", m, skipped)
	}
}

// runQuery resolves a single entity against a ready substrate (built this
// run or loaded from a snapshot) through the per-entity query path: an E1
// URI is replayed from its stored rows, any other URI is a new entity whose
// statements are read from stdin.
func runQuery(ctx context.Context, k1 *minoaner.KB, sub *minoaner.Substrate, cfg minoaner.Config, uri string, jsonOut, quiet bool) {
	var q minoaner.EntityQuery
	e := k1.Lookup(uri)
	// A damaged URI table misses every lookup: that is the snapshot's fault,
	// not a new entity.
	exitOn(k1.Err())
	if e < 0 {
		q = minoaner.EntityQuery{URI: uri}
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			parts := strings.SplitN(line, "\t", 2)
			if len(parts) != 2 {
				continue
			}
			q.Objects = append(q.Objects, minoaner.QueryObject{Predicate: parts[0], Object: parts[1]})
		}
		exitOn(sc.Err())
	}
	start := time.Now()
	var (
		ms  []minoaner.QueryMatch
		err error
	)
	if e >= 0 {
		ms, err = minoaner.ReplayEntity(ctx, sub, e, cfg)
	} else {
		ms, err = minoaner.QueryEntity(ctx, sub, q, cfg)
	}
	exitOn(err)
	elapsed := time.Since(start)

	w := bufio.NewWriter(os.Stdout)
	if jsonOut {
		// The candidate rows use the shared wire schema, so this output is
		// byte-compatible with the candidates array inside minoanerd's
		// /v1/pairs/{id}/query response (make serve-smoke diffs the two).
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(minoaner.QueryCandidates(ms)))
	} else {
		for _, m := range ms {
			fmt.Fprintf(w, "%s\t%.4f\t%s\n", m.URI, m.Score, m.Rule)
		}
	}
	exitOn(w.Flush())
	if !quiet {
		// A substrate opened from a snapshot has no build clock.
		var built string
		if d := sub.BuildDuration(); d > 0 {
			built = fmt.Sprintf(" (substrate built in %v)", d.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "minoaner: query %s: %d candidates in %v%s\n", uri, len(ms), elapsed, built)
	}
}

func loadGroundTruth(k1, k2 *minoaner.KB, path string) (*minoaner.GroundTruth, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var uriPairs [][2]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			continue
		}
		uriPairs = append(uriPairs, [2]string{parts[0], parts[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	gt, skipped := minoaner.GroundTruthFromURIs(k1, k2, uriPairs)
	return gt, skipped, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "minoaner:", err)
		os.Exit(1)
	}
}
