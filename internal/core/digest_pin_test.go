package core

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

// pinnedDigestsPath is the committed fixture of output digests captured
// BEFORE the substrate refactor split Resolve into BuildSubstrate +
// ResolveWith. The pinned-digest test replays the same matrix — the skewed
// determinism fixture and all four Table-1 presets at workers {1, 8} — and
// requires every sha256 to match: any drift in matches, provenance, R4
// removals, graph edge counts, purge state, name attributes or block
// statistics changes a digest. Each case also names the number of γ₁ spans
// ("shards", 1 or 8) it was captured at; a resolve builds its γ₁ rows in
// one walk, so that key selects nothing.
//
// Regenerate (only when the output contract intentionally changes) with:
//
//	MINOANER_UPDATE_DIGESTS=1 go test ./internal/core -run TestPinnedDigests
const pinnedDigestsPath = "testdata/pinned_digests.json"

type pinnedCase struct {
	Dataset string `json:"dataset"` // "skewed-300" or a preset name
	Workers int    `json:"workers"`
	Shards  int    `json:"shards"` // the γ₁ span count the digest was captured at; ignored
	SHA256  string `json:"sha256"`
}

// pinnedKBs materializes the fixture named by a pinned case. Preset pairs
// are generated at scale 0.1, the same down-scaling the preset identity test
// uses; all generators are seeded, so the inputs are reproducible.
func pinnedKBs(t *testing.T, dataset string) (*kb.KB, *kb.KB) {
	t.Helper()
	if dataset == "skewed-300" {
		k1, k2 := skewedKBs(300)
		return k1, k2
	}
	for _, profile := range datagen.Presets() {
		if profile.Name == dataset {
			d, err := datagen.Generate(datagen.Scale(profile, 0.1))
			if err != nil {
				t.Fatal(err)
			}
			return d.K1, d.K2
		}
	}
	t.Fatalf("unknown pinned dataset %q", dataset)
	return nil, nil
}

func pinnedMatrix() []pinnedCase {
	datasets := []string{"skewed-300"}
	for _, p := range datagen.Presets() {
		datasets = append(datasets, p.Name)
	}
	var cases []pinnedCase
	for _, d := range datasets {
		for _, w := range []int{1, 8} {
			for _, p := range []int{1, 8} {
				cases = append(cases, pinnedCase{Dataset: d, Workers: w, Shards: p})
			}
		}
	}
	return cases
}

func runPinnedCase(t *testing.T, c pinnedCase, k1, k2 *kb.KB) [32]byte {
	t.Helper()
	_, sum := resolveDigest(t, k1, k2, Config{Workers: c.Workers})
	return sum
}

// TestPinnedDigests replays the captured matrix against the committed
// digests. The skewed fixture always runs; the preset sweep is skipped under
// -short like the other preset identity tests.
func TestPinnedDigests(t *testing.T) {
	if os.Getenv("MINOANER_UPDATE_DIGESTS") != "" {
		updatePinnedDigests(t)
		return
	}
	data, err := os.ReadFile(pinnedDigestsPath)
	if err != nil {
		t.Fatalf("reading pinned digests (regenerate with MINOANER_UPDATE_DIGESTS=1): %v", err)
	}
	var cases []pinnedCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("pinned digest fixture is empty")
	}
	kbCache := map[string][2]*kb.KB{}
	for _, c := range cases {
		if testing.Short() && c.Dataset != "skewed-300" {
			continue
		}
		pair, ok := kbCache[c.Dataset]
		if !ok {
			k1, k2 := pinnedKBs(t, c.Dataset)
			pair = [2]*kb.KB{k1, k2}
			kbCache[c.Dataset] = pair
		}
		got := hex.EncodeToString(func() []byte { s := runPinnedCase(t, c, pair[0], pair[1]); return s[:] }())
		if got != c.SHA256 {
			t.Errorf("%s workers=%d shards=%d: digest %s differs from pinned %s",
				c.Dataset, c.Workers, c.Shards, got, c.SHA256)
		}
	}
}

func updatePinnedDigests(t *testing.T) {
	t.Helper()
	cases := pinnedMatrix()
	kbCache := map[string][2]*kb.KB{}
	for i := range cases {
		c := &cases[i]
		pair, ok := kbCache[c.Dataset]
		if !ok {
			k1, k2 := pinnedKBs(t, c.Dataset)
			pair = [2]*kb.KB{k1, k2}
			kbCache[c.Dataset] = pair
		}
		sum := runPinnedCase(t, *c, pair[0], pair[1])
		c.SHA256 = hex.EncodeToString(sum[:])
	}
	if err := os.MkdirAll(filepath.Dir(pinnedDigestsPath), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pinnedDigestsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %d pinned digests to %s\n", len(cases), pinnedDigestsPath)
}
