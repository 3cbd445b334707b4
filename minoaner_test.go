package minoaner

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/kb"
)

// TestPublicAPIEndToEnd exercises the facade the way the README quickstart
// does: build two KBs, resolve, evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	b1 := NewBuilder("left")
	r1 := b1.AddEntity("l:fatduck")
	b1.AddLiteral(r1, "label", "The Fat Duck")
	b1.AddLiteral(r1, "town", "Bray Berkshire")
	c1 := b1.AddEntity("l:chef")
	b1.AddLiteral(c1, "label", "Heston Blumenthal")
	b1.AddObject(r1, "chef", "l:chef")
	k1 := b1.Build()

	b2 := NewBuilder("right")
	r2 := b2.AddEntity("r:fat-duck")
	b2.AddLiteral(r2, "name", "Fat Duck restaurant")
	b2.AddLiteral(r2, "location", "Bray")
	c2 := b2.AddEntity("r:heston")
	b2.AddLiteral(c2, "name", "Heston Blumenthal")
	b2.AddObject(r2, "headChef", "r:heston")
	k2 := b2.Build()

	out, err := Resolve(context.Background(), k1, k2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gt, skipped := GroundTruthFromURIs(k1, k2, [][2]string{
		{"l:fatduck", "r:fat-duck"},
		{"l:chef", "r:heston"},
	})
	if skipped != 0 {
		t.Fatal("ground truth URIs missing")
	}
	var pairs []Pair
	for _, m := range out.Matches {
		pairs = append(pairs, m.Pair)
	}
	m := Evaluate(pairs, gt)
	if m.TruePositives < 2 {
		t.Errorf("end-to-end found %d/2 matches: %+v", m.TruePositives, out.Matches)
	}
}

func TestPublicAPIBenchmark(t *testing.T) {
	p := ScaleProfile(RestaurantProfile(), 0.3)
	d, err := GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Resolve(context.Background(), d.K1, d.K2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(out.Pairs(), d.GT)
	if m.F1 < 0.8 {
		t.Errorf("benchmark F1 = %v, want ≥ 0.8", m.F1)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	b := NewBuilder("x")
	e := b.AddEntity("u")
	b.AddLiteral(e, "p", "hello world")
	k := b.Build()
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, k); err != nil {
		t.Fatal(err)
	}
	k2, skipped, err := LoadNTriples("x", &buf, false)
	if err != nil || skipped != 0 {
		t.Fatalf("round trip: %v (skipped %d)", err, skipped)
	}
	if k2.Len() != 1 {
		t.Error("round trip lost entities")
	}
	k3, _, err := LoadTSV("y", strings.NewReader("a\tp\tv\n"), false)
	if err != nil || k3.Len() != 1 {
		t.Error("LoadTSV facade")
	}
}

func TestPublicAPIPARISBaseline(t *testing.T) {
	p := ScaleProfile(RestaurantProfile(), 0.3)
	d, err := GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	pairs := PARISBaseline(d.K1, d.K2)
	if len(pairs) == 0 {
		t.Error("PARIS baseline found nothing")
	}
}

func TestPublicAPIRuleAblation(t *testing.T) {
	p := ScaleProfile(RestaurantProfile(), 0.3)
	d, _ := GenerateBenchmark(p)
	cfg := DefaultConfig()
	rules := RuleConfig{Theta: 0.6, EnableR1: true, UseNeighbors: true}
	cfg.Rules = &rules
	out, err := Resolve(context.Background(), d.K1, d.K2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range out.Matches {
		if m.Rule.String() != "R1" {
			t.Errorf("R1-only config produced %v", m.Rule)
		}
	}
}

// Every load streams through the one ingester; the facade's loaders read
// from any io.Reader.
func TestPublicAPIStreamLoaders(t *testing.T) {
	const nt = "<a> <label> \"hello world\" .\n<a> <linked> <b> .\n<b> <label> \"world two\" .\n"
	k, skipped, err := LoadNTriples("s", strings.NewReader(nt), false)
	if err != nil || skipped != 0 {
		t.Fatalf("LoadNTriples: %v (skipped %d)", err, skipped)
	}
	if k.Len() != 2 || k.Triples() != 3 {
		t.Errorf("stream KB = %v, want 2 entities / 3 triples", k)
	}
	k2, _, err := LoadTSV("t", strings.NewReader("a\tp\tv\n"), false)
	if err != nil || k2.Len() != 1 {
		t.Error("LoadTSV facade")
	}
}

func TestPublicAPIResolveCancellation(t *testing.T) {
	p := ScaleProfile(RestaurantProfile(), 0.3)
	d, err := GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Resolve(context.Background(), d.K1, d.K2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) == 0 {
		t.Error("Resolve found no matches")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Resolve(ctx, d.K1, d.K2, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Resolve = %v, want context.Canceled", err)
	}
}

// A pair read back from a damaged snapshot never resolves to an Output with
// silently empty parts. A batch resolution over the snapshot fails with
// kb.ErrCorrupt where it reads the damage — the URI offsets or a name-block
// member — and gives the undamaged answer where it does not, as for a KB
// column; the token index, which is derived from the KB token columns,
// refuses a damaged one; and a substrate build over the loaded KBs, which
// reads them whole, fails wherever they are damaged.
func TestDamagedSnapshotNeverResolvesEmpty(t *testing.T) {
	d, err := GenerateBenchmark(ScaleProfile(RestaurantProfile(), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), Config{Workers: 1}
	built, err := BuildSubstrate(ctx, d.K1, d.K2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolveWith(ctx, built, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := WriteSnapshot(&img, built); err != nil {
		t.Fatal(err)
	}
	// ReadSnapshot decodes numeric sections into fresh arrays, which the
	// damage below writes to.
	for _, c := range []struct {
		what                   string
		warmRead, derive, inKB bool
		damage                 func(*Substrate)
	}{
		{"KB column", false, false, true, func(s *Substrate) { s.K1().SnapshotParts().StmtAttrName[0] = 1 << 20 }},
		{"URI offsets", true, false, true, func(s *Substrate) {
			_, off, _ := s.K2().SnapshotParts().URIs.Parts()
			off[1] = off[len(off)-1] + 1
		}},
		{"name-block member", true, false, false, func(s *Substrate) { s.Parts().NameBlocks.E1.Flat[0] = 1 << 20 }},
		{"KB token column", false, true, true, func(s *Substrate) { s.K2().SnapshotParts().Tokens[0] = 1 << 20 }},
	} {
		loaded, err := ReadSnapshot(img.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		sub := loaded.Substrate()
		c.damage(sub)
		out, err := ResolveWith(ctx, sub, cfg)
		switch {
		case c.warmRead && !errors.Is(err, kb.ErrCorrupt):
			t.Errorf("%s: ResolveWith error %v, want kb.ErrCorrupt", c.what, err)
		case !c.warmRead && err != nil:
			t.Errorf("%s: ResolveWith, which reads no KB column, failed: %v", c.what, err)
		case !c.warmRead && !reflect.DeepEqual(out.Matches, want.Matches):
			t.Errorf("%s: ResolveWith gave %d matches, want the %d of the built pair", c.what, len(out.Matches), len(want.Matches))
		}
		if _, err := sub.TokenIndex(ctx); c.derive && !errors.Is(err, kb.ErrCorrupt) {
			t.Errorf("%s: TokenIndex error %v, want kb.ErrCorrupt", c.what, err)
		}
		if c.inKB {
			if _, err := BuildSubstrate(ctx, sub.K1(), sub.K2(), cfg); !errors.Is(err, kb.ErrCorrupt) {
				t.Errorf("%s: BuildSubstrate error %v, want kb.ErrCorrupt", c.what, err)
			}
		}
	}
}
