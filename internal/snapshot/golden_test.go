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
// carries wall-clock timings), captured from the writer as it was BEFORE
// sections became views of the substrate's own arrays and groups of them
// were prepared concurrently. The format did not change, so neither may a
// byte. Regenerate (only when the format is bumped deliberately) with:
//
//	MINOANER_UPDATE_GOLDEN=1 go test ./internal/snapshot -run TestSnapshotBytesUnchanged
const goldenSectionsPath = "testdata/golden_sections.json"

// sectionsDigest hashes the header flags and, in ID order, every section but
// meta: its ID, its length and its bytes.
func sectionsDigest(t *testing.T, data []byte) string {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, len(h.sections))
	for id := range h.sections {
		if id != secMeta {
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
	golden := map[string]string{}
	update := os.Getenv("MINOANER_UPDATE_GOLDEN") != ""
	if !update {
		raw, err := os.ReadFile(goldenSectionsPath)
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
			got := sectionsDigest(t, snapshotBytes(t, sub))
			if update {
				golden[name] = got
			} else if got != golden[name] {
				t.Errorf("%s, GOMAXPROCS=%d: sections digest %s, committed %s", name, procs, got, golden[name])
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
		if err := os.WriteFile(goldenSectionsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
