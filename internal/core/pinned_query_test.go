package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
	"minoaner/internal/snapshot"
)

// pinnedQueriesPath pins the answers of the per-entity query path, per
// fixture: the skewed fixture (whose KBs have a schema each) and the four
// Table-1 presets at the pinned-fixture scale (0.1). Each entry is a sha256
// over every answer of one kind of query —
//
//   - "replay": ReplayEntity for every E1 entity;
//   - "query": QueryEntity(QueryFromEntity(e)) for every E1 entity;
//   - "describe": QueryEntity over every E2 entity's description with an
//     empty SelfURI, a new entity to the pair (α's no-E1-carrier case);
//
// and a built substrate and the same substrate reopened from its snapshot
// must both give it. Regenerate (only when the query path's answers
// intentionally change) with:
//
//	MINOANER_UPDATE_QUERIES=1 go test ./internal/core -run TestPinnedQueries
const pinnedQueriesPath = "testdata/pinned_queries.json"

// pinnedQueryKinds are the kinds of query each fixture pins.
var pinnedQueryKinds = []string{"replay", "query", "describe"}

// pinnedQueryFixtures returns the fixtures by name; the presets are left
// out under -short.
func pinnedQueryFixtures(t *testing.T) (names []string, pairs map[string][2]*kb.KB) {
	t.Helper()
	s1, s2 := core.SkewedKBs(300)
	names, pairs = []string{"skewed-300"}, map[string][2]*kb.KB{"skewed-300": {s1, s2}}
	if testing.Short() {
		return names, pairs
	}
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, p.Name)
		pairs[p.Name] = [2]*kb.KB{d.K1, d.K2}
	}
	return names, pairs
}

// hashAnswer writes one query's answer into h: every candidate's entity,
// URI, rule, the bits of its three scores and its reciprocity flag.
func hashAnswer(h hash.Hash, label string, rows []core.QueryMatch) {
	fmt.Fprintf(h, "%s %d\n", label, len(rows))
	for _, m := range rows {
		fmt.Fprintf(h, "%d %s %s %x %x %x %t\n", m.Candidate, m.URI, m.Rule,
			math.Float64bits(m.Score), math.Float64bits(m.ValueSim), math.Float64bits(m.NeighborSim), m.Reciprocal)
	}
}

// pinnedQueryDigests answers every query of each kind on sub and hashes the
// answers. It also counts the describe answers that claim R1, so a fixture
// whose new entities never reach α can be told apart.
func pinnedQueryDigests(t *testing.T, sub *core.Substrate, k1, k2 *kb.KB) (digests map[string]string, describeR1 int) {
	t.Helper()
	ctx := context.Background()
	cfg := core.Config{Workers: 2}
	hashes := map[string]hash.Hash{}
	for _, kind := range pinnedQueryKinds {
		hashes[kind] = sha256.New()
	}
	for e := range k1.Len() {
		id := kb.EntityID(e)
		rows, err := core.ReplayEntity(ctx, sub, id, cfg)
		if err != nil {
			t.Fatalf("replay of %d: %v", e, err)
		}
		hashAnswer(hashes["replay"], k1.URI(id), rows)
		if rows, err = core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, id), cfg); err != nil {
			t.Fatalf("query of %d: %v", e, err)
		}
		hashAnswer(hashes["query"], k1.URI(id), rows)
	}
	for e := range k2.Len() {
		q := core.QueryFromEntity(k2, kb.EntityID(e))
		q.SelfURI = ""
		rows, err := core.QueryEntity(ctx, sub, q, cfg)
		if err != nil {
			t.Fatalf("describe of E2 entity %d: %v", e, err)
		}
		hashAnswer(hashes["describe"], q.URI, rows)
		for _, m := range rows {
			if m.Rule == matching.RuleName {
				describeR1++
			}
		}
	}
	digests = map[string]string{}
	for kind, h := range hashes {
		digests[kind] = hex.EncodeToString(h.Sum(nil))
	}
	return digests, describeR1
}

// TestPinnedQueries replays every fixture's queries on a built substrate and
// on the substrate reopened from its snapshot, and requires the committed
// digests of both.
func TestPinnedQueries(t *testing.T) {
	update := os.Getenv("MINOANER_UPDATE_QUERIES") != ""
	pinned := map[string]map[string]string{}
	if !update {
		raw, err := os.ReadFile(pinnedQueriesPath)
		if err != nil {
			t.Fatalf("reading pinned queries (regenerate with MINOANER_UPDATE_QUERIES=1): %v", err)
		}
		if err := json.Unmarshal(raw, &pinned); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	names, pairs := pinnedQueryFixtures(t)
	describeR1 := 0
	for _, name := range names {
		k1, k2 := pairs[name][0], pairs[name][1]
		built, err := core.BuildSubstrate(ctx, k1, k2, core.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "pair.snap")
		if err := snapshot.WriteSubstrateFile(path, built); err != nil {
			t.Fatal(err)
		}
		opened, err := snapshot.OpenSubstrate(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			what string
			sub  *core.Substrate
		}{{"built", built}, {"reopened", opened.Substrate()}} {
			got, r1 := pinnedQueryDigests(t, form.sub, k1, k2)
			describeR1 += r1
			if update && form.what == "built" {
				pinned[name] = got
				continue
			}
			for _, kind := range pinnedQueryKinds {
				if got[kind] != pinned[name][kind] {
					t.Errorf("%s, %s substrate, %s: digest %s, pinned %s", name, form.what, kind, got[kind], pinned[name][kind])
				}
			}
		}
		if err := opened.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !testing.Short() && describeR1 == 0 {
		t.Error("no new-entity describe reached α; the describe digests test nothing of it")
	}
	if update {
		raw, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedQueriesPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
