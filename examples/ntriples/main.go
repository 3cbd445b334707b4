// N-Triples workflow: export two KBs to RDF N-Triples files, load them back
// the way a downstream user would load real dumps, resolve, and write the
// matches as a link set — the interlinking task of the Web of Data (§1).
//
// Run with: go run ./examples/ntriples
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"minoaner"
)

func main() {
	dir, err := os.MkdirTemp("", "minoaner-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Produce two publication KBs (the Rexa-DBLP profile at 1/20 scale)
	// and serialize them as N-Triples dumps.
	dataset, err := minoaner.GenerateBenchmark(
		minoaner.ScaleProfile(minoaner.RexaDBLPProfile(), 0.05))
	if err != nil {
		log.Fatal(err)
	}
	p1 := filepath.Join(dir, "rexa.nt")
	p2 := filepath.Join(dir, "dblp.nt")
	if err := writeDump(p1, dataset.K1); err != nil {
		log.Fatal(err)
	}
	if err := writeDump(p2, dataset.K2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", p1, p2)

	// Load the dumps back, both into one token and one schema dictionary —
	// lenient mode skips malformed lines, which real web dumps always
	// contain.
	ctx := context.Background()
	k1, k2, skipped, err := minoaner.LoadPair(ctx, p1, p2, "nt", true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %v and %v (skipped %d + %d malformed lines)\n", k1, k2, skipped[0], skipped[1])

	out, err := minoaner.Resolve(ctx, k1, k2, minoaner.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The generated KBs preserve entity URIs, so the original ground truth
	// can be re-resolved against the reloaded KBs for evaluation.
	var uriPairs [][2]string
	for _, p := range dataset.GT.Pairs() {
		uriPairs = append(uriPairs, [2]string{
			dataset.K1.Entity(p.E1).URI,
			dataset.K2.Entity(p.E2).URI,
		})
	}
	gt, lost := minoaner.GroundTruthFromURIs(k1, k2, uriPairs)
	if lost != 0 {
		log.Fatalf("%d ground-truth URIs lost in the round trip", lost)
	}
	m := minoaner.Evaluate(out.Pairs(), gt)
	fmt.Printf("resolved the dumps: %d matches, %s\n", len(out.Matches), m)

	// Write the link set (owl:sameAs-style statements).
	links := filepath.Join(dir, "links.nt")
	f, err := os.Create(links)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	for _, match := range out.Matches {
		fmt.Fprintf(f, "<%s> <http://www.w3.org/2002/07/owl#sameAs> <%s> .\n",
			k1.Entity(match.Pair.E1).URI, k2.Entity(match.Pair.E2).URI)
	}
	fmt.Printf("link set written to %s\n", links)
}

func writeDump(path string, k *minoaner.KB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return minoaner.WriteNTriples(f, k)
}
