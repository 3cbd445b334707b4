package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"minoaner/internal/core"
	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/snapshot"
)

// Whatever reaches a substrate first — batch resolutions, a prewarm, queries
// or the snapshot writer, all at once — its graph is built exactly once, and
// everyone reads that one.
func TestGraphBuiltOnceAcrossConsumers(t *testing.T) {
	ctx := context.Background()
	k1, k2 := core.SkewedKBs(200)
	cfg := core.Config{Workers: 2}
	refQuery := core.QueryFromEntity(k1, 7)
	refSub, err := core.BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.ResolveWith(ctx, refSub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Digest(t, refSub, ref)
	wantRows, err := core.QueryEntity(ctx, refSub, refQuery, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sub, err := core.BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sub.GraphBuilds() != 0 {
		t.Fatal("BuildSubstrate must not build the graph")
	}
	var consumers []func() error
	for i := 0; i < 3; i++ {
		consumers = append(consumers, func() error {
			out, err := core.ResolveWith(ctx, sub, cfg)
			if err == nil && core.Digest(t, sub, out) != want {
				err = fmt.Errorf("concurrent ResolveWith differs from Resolve")
			}
			return err
		})
	}
	consumers = append(consumers, func() error { return sub.PrewarmQueries(ctx) })
	for i := 0; i < 16; i++ {
		consumers = append(consumers, func() error {
			rows, err := core.QueryEntity(ctx, sub, refQuery, cfg)
			if err == nil && fmt.Sprint(rows) != fmt.Sprint(wantRows) {
				err = fmt.Errorf("concurrent QueryEntity differs from a fresh substrate's")
			}
			return err
		})
	}
	consumers = append(consumers, func() error { return snapshot.WriteSubstrate(io.Discard, sub) })

	start := make(chan struct{})
	errs := make(chan error, len(consumers))
	var wg sync.WaitGroup
	for _, run := range consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- run()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := sub.GraphBuilds(); n != 1 {
		t.Fatalf("the substrate built its graph %d times, want once", n)
	}
}

// ResolveWith must give one digest on a built substrate, on one opened from
// its snapshot and on one read from the snapshot's bytes — the loaded ones
// without building a graph at all — for every worker and span count.
func TestBuiltOpenedReadDigestsAgree(t *testing.T) {
	type fixture struct {
		name   string
		k1, k2 *kb.KB
	}
	s1, s2 := core.SkewedKBs(300)
	fixtures := []fixture{{"skewed-300", s1, s2}}
	if !testing.Short() {
		for _, p := range datagen.Presets() {
			d, err := datagen.Generate(datagen.Scale(p, 0.1))
			if err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, fixture{p.Name, d.K1, d.K2})
		}
	}
	ctx := context.Background()
	for _, f := range fixtures {
		refSub, err := core.BuildSubstrate(ctx, f.k1, f.k2, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.ResolveWith(ctx, refSub, core.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := core.Digest(t, refSub, ref)
		for _, workers := range []int{1, 2, 8} {
			built, err := core.BuildSubstrate(ctx, f.k1, f.k2, core.Config{Workers: workers})
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
			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			read, err := snapshot.ReadSubstrate(image)
			if err != nil {
				t.Fatal(err)
			}
			for kind, sub := range map[string]*core.Substrate{"built": built, "opened": opened.Substrate(), "read": read.Substrate()} {
				for _, spans := range []int{1, 8} {
					out, err := core.ResolveWithSpans(ctx, sub, core.Config{Workers: workers}, spans)
					if err != nil {
						t.Fatal(err)
					}
					if core.Digest(t, sub, out) != want {
						t.Errorf("%s: %s substrate, workers=%d spans=%d: digest differs from Resolve", f.name, kind, workers, spans)
					}
				}
				if builds, loaded := sub.GraphBuilds(), kind != "built"; (loaded && builds != 0) || (!loaded && builds != 1) {
					t.Errorf("%s: %s substrate built its graph %d times", f.name, kind, builds)
				}
			}
			// The loaded substrates wrote what the built one wrote.
			var again bytes.Buffer
			if err := snapshot.WriteSubstrate(&again, opened.Substrate()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), image) {
				t.Errorf("%s workers=%d: a snapshot rewritten from the opened substrate differs", f.name, workers)
			}
			opened.Close()
		}
	}
}

// A pair opened from its snapshot derives its token index on the first
// query that describes an entity, exactly once however many race for it; a
// first query whose context is already cancelled fails without deriving it,
// and leaves the derive to the next. Run under -race (make race-overlap).
func TestTokenIndexDerivedOnce(t *testing.T) {
	ctx := context.Background()
	k1, k2 := core.SkewedKBs(200)
	cfg := core.Config{Workers: 2}
	built, err := core.BuildSubstrate(ctx, k1, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	describe := core.QueryFromEntity(k1, 7)
	describe.URI, describe.SelfURI = "q:new", ""
	want, err := core.QueryEntity(ctx, built, describe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the description has no candidate; test is vacuous")
	}
	path := filepath.Join(t.TempDir(), "pair.snap")
	if err := snapshot.WriteSubstrateFile(path, built); err != nil {
		t.Fatal(err)
	}
	opened, err := snapshot.OpenSubstrate(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	sub := opened.Substrate()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := core.QueryEntity(cancelled, sub, describe, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("a query under a cancelled context: %v, want context.Canceled", err)
	}
	if n := sub.TokenDerives(); n != 0 {
		t.Fatalf("a cancelled query derived the token index %d times", n)
	}

	start := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := core.QueryEntity(ctx, sub, describe, cfg)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("a query over the derived index differs from the built pair's")
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := sub.TokenDerives(); n != 1 {
		t.Fatalf("the opened pair derived its token index %d times, want once", n)
	}
}
