package kb_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

// Every datagen preset, written to N-Triples and read back, must give the
// KB the reference Builder gives — URIs, Attrs order, Relations, token
// strings, column multisets and triple count — whether the value stage runs
// inline (GOMAXPROCS 1) or beside the parser (GOMAXPROCS 2).
func TestIngestEquivalenceOnPresets(t *testing.T) {
	scale := map[string]float64{"Restaurant": 1, "Rexa-DBLP": 0.2, "BBCmusic-DBpedia": 0.15, "YAGO-IMDb": 0.15}
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, scale[p.Name]))
		if err != nil {
			t.Fatal(err)
		}
		for side, k := range []*kb.KB{d.K1, d.K2} {
			var nt bytes.Buffer
			if err := kb.WriteNTriples(&nt, k); err != nil {
				t.Fatal(err)
			}
			want, _, err := kb.RefLoadNTriples("ref", bytes.NewReader(nt.Bytes()), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/E%d/procs=%d", p.Name, side+1, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got, skipped, err := kb.LoadNTriples("new", bytes.NewReader(nt.Bytes()), false)
					if err != nil || skipped != 0 {
						t.Fatalf("LoadNTriples: %v (skipped %d)", err, skipped)
					}
					if diff := kb.DiffKB(got, want); diff != "" {
						t.Fatal(diff)
					}
				})
			}
		}
	}
}
