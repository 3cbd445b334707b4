package kb_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// openTracked writes the Restaurant pair at the given scale to a snapshot,
// opens it, and returns it with every deferred check its open made.
func openTracked(t *testing.T, scale float64) (*snapshot.Loaded, []*kb.Tracked) {
	t.Helper()
	d, err := datagen.Generate(datagen.Scale(datagen.Restaurant(), scale))
	if err != nil {
		t.Fatal(err)
	}
	built, err := core.BuildSubstrate(context.Background(), d.K1, d.K2, core.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pair.snap")
	if err := snapshot.WriteSubstrateFile(path, built); err != nil {
		t.Fatal(err)
	}
	stop := kb.TrackDeferred()
	loaded, err := snapshot.OpenSubstrate(path)
	checks := stop()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	if len(checks) == 0 {
		t.Fatal("opening a snapshot made no deferred check; test is vacuous")
	}
	return loaded, checks
}

// The server's first answer after an open — a replay by URI — reads only the
// rows it touches: it runs none of the checks the open deferred. A warm
// batch resolution runs only those of what it reads whole: the name blocks
// it hands out with their keys, and the two URI tables its matches are
// printed from. It reads few of the installed graph's rows and checks each
// as it reads it, so the graph's whole-scan check does not run.
func TestFirstAnswerRunsNoDeferredCheck(t *testing.T) {
	loaded, checks := openTracked(t, 1)
	sub := loaded.Substrate()
	ctx, cfg := context.Background(), core.Config{Workers: 1}
	k1 := sub.K1()
	for id := kb.EntityID(0); ; id++ { // replays until one has candidates
		ms, err := core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, k1.Lookup(k1.URI(id))), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) > 0 {
			break
		}
	}
	for _, c := range checks {
		if c.Runs() != 0 {
			t.Errorf("the first answer ran the deferred check of %s", c.Name())
		}
	}
	if _, err := core.ResolveWith(ctx, sub, core.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := map[*kb.Deferred]bool{
		kb.FrozenCheck(sub.Parts().NameBlocks.Keys):   true,
		kb.FrozenCheck(k1.SnapshotParts().URIs):       true,
		kb.FrozenCheck(sub.K2().SnapshotParts().URIs): true,
	}
	for _, c := range checks {
		if c.Name() == "name blocks" {
			want[c.Deferred] = true
		}
	}
	if len(want) != 4 {
		t.Fatalf("found %d of the 4 checks a warm resolve runs", len(want))
	}
	for _, c := range checks {
		if ran := c.Runs() != 0; ran != want[c.Deferred] {
			t.Errorf("a warm resolve: check of %s ran: %v, want %v", c.Name(), ran, want[c.Deferred])
		}
	}
}

// Sixteen readers of a freshly opened substrate — queries that hit and miss
// the name index, one batch resolution, each ending with a full Verify —
// race for every deferred check; each runs exactly once, and its verdict
// reaches all of them. Run under -race (make race-overlap).
func TestDeferredChecksOverlap(t *testing.T) {
	loaded, checks := openTracked(t, 0.5)
	sub := loaded.Substrate()
	ctx, cfg := context.Background(), core.Config{Workers: 2}
	k1 := sub.K1()
	attrs1, _ := sub.NameAttrs()
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			switch {
			case g == 0:
				_, err = core.ResolveWith(ctx, sub, cfg)
			case g%2 == 0:
				_, err = core.QueryEntity(ctx, sub, core.QueryFromEntity(k1, kb.EntityID(g)), cfg)
			default:
				_, err = core.QueryEntity(ctx, sub, core.EntityQuery{URI: "q:new",
					Attrs: []kb.AttributeValue{{Attribute: attrs1[0], Value: "nobody by this name"}}}, cfg)
			}
			errs[g] = errors.Join(err, sub.Verify())
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if c.Runs() != 1 {
			t.Errorf("the deferred check of %s ran %d times", c.Name(), c.Runs())
		}
	}
}
