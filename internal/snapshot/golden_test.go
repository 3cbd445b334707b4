package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
)

// goldenSectionsPath holds, per Table-1 preset at the pinned-fixture scale,
// the digest of every snapshot byte outside the meta section (whose JSON
// carries wall-clock timings). It was last regenerated when format version 2
// dropped the pad word of edge records; goldenNonEdgePath shows that no other
// section changed then. A byte may change only with the format. Regenerate
// (only when the format is bumped deliberately) with:
//
//	MINOANER_UPDATE_GOLDEN=1 go test ./internal/snapshot -run TestSnapshotBytesUnchanged
const goldenSectionsPath = "testdata/golden_sections.json"

// goldenNonEdgePath holds, per preset, nonEdgeDigest of the same snapshots,
// captured from format version 1 when edge records lost their pad word: only
// the four edge sections changed then, and no other byte may change with the
// edge layout. It has no update switch.
const goldenNonEdgePath = "testdata/golden_nonedge_sections.json"

// edgeSections are the sections of graph.Edge records.
var edgeSections = []uint32{secBeta1Edges, secBeta2Edges, secGamma2Edges, secAdj1Edges}

// sectionsDigest hashes the header flags and, in ID order, every section but
// meta: its ID, its length and its bytes.
func sectionsDigest(t *testing.T, data []byte) string {
	return digestSections(t, data, func(id uint32) bool { return id != secMeta })
}

// nonEdgeDigest is sectionsDigest without the edge sections.
func nonEdgeDigest(t *testing.T, data []byte) string {
	return digestSections(t, data, func(id uint32) bool { return id != secMeta && !slices.Contains(edgeSections, id) })
}

func digestSections(t *testing.T, data []byte, keep func(id uint32) bool) string {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, len(h.sections))
	for id := range h.sections {
		if keep(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	sum := sha256.New()
	fmt.Fprintf(sum, "flags %d sections %d\n", h.flags, len(h.sections))
	for _, id := range ids {
		fmt.Fprintf(sum, "section %d %d\n", id, len(h.sections[id]))
		sum.Write(h.sections[id])
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestSnapshotBytesUnchanged writes each preset's snapshot with one and with
// two processors — the writer prepares section groups on as many workers —
// and requires the committed digest both times.
func TestSnapshotBytesUnchanged(t *testing.T) {
	checkGolden(t, goldenSectionsPath, os.Getenv("MINOANER_UPDATE_GOLDEN") != "", sectionsDigest)
}

// TestNonEdgeSectionsUnchanged requires the committed digest of every
// section but the edge sections, the same way.
func TestNonEdgeSectionsUnchanged(t *testing.T) {
	checkGolden(t, goldenNonEdgePath, false, nonEdgeDigest)
}

func checkGolden(t *testing.T, path string, update bool, digest func(*testing.T, []byte) string) {
	golden := map[string]string{}
	if !update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range presetsUnderTest(t) {
		d := generatePreset(t, name)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			// Workers 0: the engine, and with it the writer, follows GOMAXPROCS.
			sub, err := buildWith(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := digest(t, snapshotBytes(t, sub))
			if update {
				golden[name] = got
			} else if got != golden[name] {
				t.Errorf("%s, GOMAXPROCS=%d: digest %s, committed %s", name, procs, got, golden[name])
			}
		}
	}
	if update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
