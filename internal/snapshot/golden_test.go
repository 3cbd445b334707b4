package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

// goldenSectionsPath holds, per Table-1 preset at the pinned-fixture scale,
// the digest of every snapshot byte outside the meta section (whose JSON
// carries wall-clock timings). It was last regenerated when format version 3
// stopped storing the token index; goldenKeptPath shows that no other
// section changed then. A byte may change only with the format. Regenerate
// (only when the format is bumped deliberately) with:
//
//	MINOANER_UPDATE_GOLDEN=1 go test ./internal/snapshot -run TestSnapshotBytesUnchanged
const goldenSectionsPath = "testdata/golden_sections.json"

// goldenKeptPath holds, per preset, keptDigest of the same snapshots,
// captured from format version 2 before version 3 stopped storing the token
// index: every section a version 3 file still holds is pinned by its ID and
// bytes, so no byte of them may change with the index's removal. It has no
// update switch.
const goldenKeptPath = "testdata/golden_kept_sections.json"

// indexSections are the IDs format version 2 gave the token index, which
// version 3 derives: the joint dictionary's trio (320–322), the translation
// tables (420, 421), and the member CSRs and weights (422–426).
var indexSections = []uint32{320, 321, 322, 420, 421, 422, 423, 424, 425, 426}

// sectionsDigest hashes the header flags and, in ID order, every section but
// meta: its ID, its length and its bytes.
func sectionsDigest(t *testing.T, data []byte) string {
	h := parsed(t, data)
	sum := sha256.New()
	fmt.Fprintf(sum, "flags %d sections %d\n", h.flags, len(h.sections))
	hashSections(sum, h, func(id uint32) bool { return id != secMeta })
	return hex.EncodeToString(sum.Sum(nil))
}

// keptDigest hashes, in ID order, every section but meta and the token
// index's: its ID, its length and its bytes. Unlike sectionsDigest it leaves
// out the header's flags and section count, which the index's removal
// changed.
func keptDigest(t *testing.T, data []byte) string {
	sum := sha256.New()
	hashSections(sum, parsed(t, data), func(id uint32) bool { return id != secMeta && !slices.Contains(indexSections, id) })
	return hex.EncodeToString(sum.Sum(nil))
}

func parsed(t *testing.T, data []byte) *header {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// hashSections writes, in ID order, each kept section's ID, length and bytes.
func hashSections(sum io.Writer, h *header, keep func(id uint32) bool) {
	ids := make([]uint32, 0, len(h.sections))
	for id := range h.sections {
		if keep(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(sum, "section %d %d\n", id, len(h.sections[id]))
		sum.Write(h.sections[id])
	}
}

// TestSnapshotBytesUnchanged writes each preset's snapshot with one and with
// two processors — the writer prepares section groups on as many workers —
// and requires the committed digest both times.
func TestSnapshotBytesUnchanged(t *testing.T) {
	checkGolden(t, goldenSectionsPath, os.Getenv("MINOANER_UPDATE_GOLDEN") != "", sectionsDigest)
}

// TestKeptSectionsUnchanged requires the committed digest of every section
// but meta and the token index's, the same way.
func TestKeptSectionsUnchanged(t *testing.T) {
	checkGolden(t, goldenKeptPath, false, keptDigest)
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
