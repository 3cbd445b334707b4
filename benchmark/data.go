package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/server"
)

// pairSpec names one generated KB pair: a datagen preset and the factor its
// entity counts are scaled by.
type pairSpec struct {
	preset string
	scale  float64
}

// Name-constituent pools of every benchmark profile. datagen.Scale leaves
// the presets' pools fixed (NamePool²·YearPool = 22,500–40,000 names), so
// makeUniqueName spins forever once a scaled profile needs more; 80²·40 =
// 256,000 names cover the largest pair here, and both pools stay under the
// purge thresholds (NamePool < 89, YearPool < 45), so name and year token
// blocks are still purged and the preset's evidence regime holds.
const (
	namePool = 80
	yearPool = 40
	// maxNameLoad is the share of the name space a profile may use: above it
	// the rejection sampling in makeUniqueName slows sharply.
	maxNameLoad = 0.8
	// generateDeadline bounds one datagen.Generate call; the largest pair
	// generates in about 5 s on the 2-core reference box.
	generateDeadline = 90 * time.Second
)

// profileFor builds the datagen profile of spec for one seed, refusing a
// profile whose unique-name demand would make generation spin.
func profileFor(spec pairSpec, seed int64) (datagen.Profile, error) {
	var p datagen.Profile
	for _, q := range datagen.Presets() {
		if q.Name == spec.preset {
			p = q
		}
	}
	if p.Name == "" {
		return p, fmt.Errorf("unknown datagen preset %q", spec.preset)
	}
	p = datagen.Scale(p, spec.scale)
	p.NamePool, p.YearPool = namePool, yearPool
	p.Seed = seed
	// Every entity draws one unique name, except that a name-identified
	// match shares one name across the pair.
	demand := float64(p.E1Size+p.E2Size) - p.PName*float64(p.Matches)
	capacity := float64(p.NamePool * p.NamePool * p.YearPool)
	if demand > maxNameLoad*capacity {
		return p, fmt.Errorf("profile %s ×%g needs %.0f unique names, over %.0f%% of the %.0f available",
			spec.preset, spec.scale, demand, 100*maxNameLoad, capacity)
	}
	return p, nil
}

// generate runs datagen.Generate under generateDeadline, so a profile that
// makes the generator spin fails with its name instead of hanging the run.
func generate(ctx context.Context, p datagen.Profile) (*datagen.Dataset, error) {
	type out struct {
		d   *datagen.Dataset
		err error
	}
	done := make(chan out, 1)
	go func() {
		d, err := datagen.Generate(p)
		done <- out{d, err}
	}()
	select {
	case o := <-done:
		return o.d, o.err
	case <-time.After(generateDeadline):
		return nil, fmt.Errorf("generating profile %s (%d × %d entities, seed %d) exceeded %v",
			p.Name, p.E1Size, p.E2Size, p.Seed, generateDeadline)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// query is one pre-encoded request of the serving corpus and the E2 URI its
// top candidate must be.
type query struct {
	replay   []byte // {"uri": <E1 URI>}
	describe []byte // the entity's literal statements under a fresh URI
	want     string
}

// pair is one generated KB pair on disk: the only things the programs under
// test ever see are e1 and e2.
type pair struct {
	e1, e2   string
	bytes    int64
	entities int
	triples  int
	gt       map[string]string // E1 URI → E2 URI
	corpus   []query
}

// corpusSize caps the serving corpus: large enough that a run rarely
// repeats an entity, small enough to pre-encode in well under a second.
const corpusSize = 20000

// writePair generates the pair of spec into dir/<name>.* and derives the
// ground truth and the serving corpus from the generator's own state. The
// in-memory dataset (shared-dictionary KBs no user ever has) is dropped
// before returning, and with it this process's peak RSS, which children
// started from here on would otherwise report as their own.
func writePair(ctx context.Context, dir, name string, spec pairSpec, seed int64) (*pair, error) {
	prof, err := profileFor(spec, seed)
	if err != nil {
		return nil, err
	}
	d, err := generate(ctx, prof)
	if err != nil {
		return nil, err
	}
	p := &pair{
		e1:       filepath.Join(dir, name+".e1.nt"),
		e2:       filepath.Join(dir, name+".e2.nt"),
		entities: d.K1.Len() + d.K2.Len(),
		triples:  d.K1.Triples() + d.K2.Triples(),
		gt:       make(map[string]string, d.GT.Len()),
	}
	for _, f := range []struct {
		path string
		k    *kb.KB
	}{{p.e1, d.K1}, {p.e2, d.K2}} {
		n, err := writeNTriples(f.path, f.k)
		if err != nil {
			return nil, err
		}
		p.bytes += n
	}
	gtPairs := d.GT.Pairs()
	for _, m := range gtPairs {
		p.gt[d.K1.Entity(m.E1).URI] = d.K2.Entity(m.E2).URI
	}
	rng := rand.New(rand.NewSource(seed))
	for n, i := range rng.Perm(len(gtPairs)) {
		if n == corpusSize {
			break
		}
		m := gtPairs[i]
		e := d.K1.Entity(m.E1)
		req := server.QueryRequest{URI: fmt.Sprintf("new:%d", n)}
		for _, a := range e.Attrs {
			req.Attrs = append(req.Attrs, server.QueryAttr{Attribute: a.Attribute, Value: a.Value})
		}
		for _, rel := range e.Relations {
			req.Objects = append(req.Objects, server.QueryObject{Predicate: rel.Predicate, Object: d.K1.Entity(rel.Object).URI})
		}
		q := query{want: d.K2.Entity(m.E2).URI}
		if q.replay, err = json.Marshal(server.QueryRequest{URI: e.URI}); err != nil {
			return nil, err
		}
		if q.describe, err = json.Marshal(req); err != nil {
			return nil, err
		}
		p.corpus = append(p.corpus, q)
	}
	// The dataset is garbage from here on; collect it now so that the
	// collection does not run beside the measurement.
	d = nil
	debug.FreeOSMemory()
	return p, resetPeakRSS()
}

func writeNTriples(path string, k *kb.KB) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = kb.WriteNTriples(w, k)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return syncFile(path)
}

// syncFile has the kernel write a finished file back now, so that the
// write-back does not run beside the measurement that follows, and returns
// the file's size.
func syncFile(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
