package minoaner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minoaner/internal/graph"
	"minoaner/internal/kb"
	"minoaner/internal/matching"
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
// kb.ErrCorrupt where it reads the damage — the URI offsets — and gives the
// undamaged answer where it does not, as for a KB column or a member of the
// name table; the token index, which is derived from the KB token columns,
// refuses a damaged one; and a substrate build over the loaded KBs, which
// reads them whole, fails wherever they are damaged. The graph's rows are
// checked as the resolution reads them (damagedGraphRows).
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
		{"name-table member", false, false, false, func(s *Substrate) { s.Parts().NameTable.E1.Flat[0] = 1 << 20 }},
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
	damagedGraphRows(t)
}

// damagedGraphRows puts an entity ID out of range, and for edges a weight
// that is not strictly positive and finite, into each row set of the graph
// a batch resolution reads — α₁, α₂, β₁, β₂, γ₂ and the inputs of the γ₁
// rows, Adj₁, In₂ and Top₁ — of a pair read back from a snapshot, once in a
// row the resolution reads and once in a row it does not. The pair is
// BBCmusic-DBpedia ×0.1, whose R3 matches follow neighbor evidence. Read, the damage
// fails the resolution with graph.ErrOutOfRange or graph.ErrBadWeight at 1
// and 4 workers; unread, the resolution gives the matches of the built pair.
// Substrate.Verify, which scans the whole graph, refuses every case.
//
// The rows are picked from the undamaged matches. An R3 match's own rows
// are read (R3 fuses its β and γ rows, and its γ₁ row follows its top
// neighbors, their adjacency and the reverse index of what that reaches).
// An R1 match's rows are not: R1 commits it from α₁, R4 finds both edges in
// α, and no γ₁ row is built for it. An adjacency row no E1 entity outside
// the R1 matches lists as a top neighbor is never followed, nor a reverse
// index row no such adjacency row reaches. Every α₁ row is read by R1 and
// every match's α₂ row by R4, so those two are left unread by resolutions
// without R1 and R4, and without R4.
func damagedGraphRows(t *testing.T) {
	d, err := GenerateBenchmark(ScaleProfile(BBCMusicDBpediaProfile(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	built, err := BuildSubstrate(ctx, d.K1, d.K2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolveWith(ctx, built, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := WriteSnapshot(&img, built); err != nil {
		t.Fatal(err)
	}
	g, err := built.ExportGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := built.K1().Len(), built.K2().Len()
	var r1, r3 []matching.Match
	for _, m := range want.Matches {
		switch m.Rule {
		case matching.RuleName:
			r1 = append(r1, m)
		case matching.RuleRank:
			r3 = append(r3, m)
		}
	}
	// The rows a resolution may read through the γ₁ rows: those of the top
	// neighbors of every E1 entity R1 does not match, and the reverse index
	// rows their adjacency reaches.
	byR1 := make([]bool, n1)
	for _, m := range r1 {
		byR1[m.Pair.E1] = true
	}
	adjReached, inReached := make([]bool, n1), make([]bool, n2)
	for i := range n1 {
		if byR1[i] {
			continue
		}
		for _, x := range g.Top1.Row(i) {
			adjReached[x] = true
			for _, e := range g.Adj1.Row(int(x)) {
				inReached[e.To] = true
			}
		}
	}
	first := func(what string, n int, ok func(int) bool) int {
		for i := range n {
			if ok(i) {
				return i
			}
		}
		t.Fatalf("no %s fits; the fixture no longer covers the case", what)
		return -1
	}
	nonEmpty := func(off []int64) func(int) bool { return func(i int) bool { return off[i+1] > off[i] } }
	// An R1 match whose unread rows hold entries, and an R3 match whose γ₁
	// row follows a top neighbor with adjacency into a reverse index row
	// with members.
	m1 := r1[first("R1 match", len(r1), func(k int) bool {
		p := r1[k].Pair
		return nonEmpty(g.Beta1.Off)(int(p.E1)) && nonEmpty(g.Top1.Off)(int(p.E1)) &&
			nonEmpty(g.Beta2.Off)(int(p.E2)) && nonEmpty(g.Gamma2.Off)(int(p.E2))
	})].Pair
	m3 := r3[first("R3 match", len(r3), func(k int) bool {
		p := r3[k].Pair
		top := g.Top1.Row(int(p.E1))
		return len(top) > 0 && nonEmpty(g.Adj1.Off)(int(top[0])) && nonEmpty(g.In2.Off)(int(g.Adj1.Row(int(top[0]))[0].To)) &&
			nonEmpty(g.Beta1.Off)(int(p.E1)) && nonEmpty(g.Beta2.Off)(int(p.E2)) && nonEmpty(g.Gamma2.Off)(int(p.E2))
	})].Pair
	na := g.Top1.Row(int(m3.E1))[0]
	y := g.Adj1.Row(int(na))[0].To
	unreadAdj := first("unread adjacency row", n1, func(x int) bool { return !adjReached[x] && nonEmpty(g.Adj1.Off)(x) })
	unreadIn := first("unread reverse index row", n2, func(y int) bool { return !inReached[y] && nonEmpty(g.In2.Off)(y) })
	full := matching.DefaultConfig()
	noR4, noR1R4 := full, full
	noR4.EnableR4 = false
	noR1R4.EnableR1, noR1R4.EnableR4 = false, false

	type set struct {
		name       string
		ids        func(g *graph.Graph) graph.Rows[kb.EntityID]
		edges      func(g *graph.Graph) graph.Rows[graph.Edge]
		below      int // the entity count the set's targets index
		read       int // a row the full rules read, damaged at its first entry
		unread     int // a row unreadRules do not read
		unreadWith matching.Config
	}
	sets := []set{
		{name: "α₁", ids: func(g *graph.Graph) graph.Rows[kb.EntityID] { return g.Alpha1 }, below: n2, read: int(m1.E1), unread: int(m1.E1), unreadWith: noR1R4},
		{name: "α₂", ids: func(g *graph.Graph) graph.Rows[kb.EntityID] { return g.Alpha2 }, below: n1, read: int(m1.E2), unread: int(m1.E2), unreadWith: noR4},
		{name: "β₁", edges: func(g *graph.Graph) graph.Rows[graph.Edge] { return g.Beta1 }, below: n2, read: int(m3.E1), unread: int(m1.E1), unreadWith: full},
		{name: "β₂", edges: func(g *graph.Graph) graph.Rows[graph.Edge] { return g.Beta2 }, below: n1, read: int(m3.E2), unread: int(m1.E2), unreadWith: full},
		{name: "γ₂", edges: func(g *graph.Graph) graph.Rows[graph.Edge] { return g.Gamma2 }, below: n1, read: int(m3.E2), unread: int(m1.E2), unreadWith: full},
		{name: "Adj₁", edges: func(g *graph.Graph) graph.Rows[graph.Edge] { return g.Adj1 }, below: n2, read: int(na), unread: unreadAdj, unreadWith: full},
		{name: "In₂", ids: func(g *graph.Graph) graph.Rows[kb.EntityID] { return g.In2 }, below: n2, read: int(y), unread: unreadIn, unreadWith: full},
		{name: "Top₁", ids: func(g *graph.Graph) graph.Rows[kb.EntityID] { return g.Top1 }, below: n1, read: int(m3.E1), unread: int(m1.E1), unreadWith: full},
	}
	resolve := func(sub *Substrate, workers int, rules matching.Config) (*Output, error) {
		return ResolveWith(ctx, sub, Config{Workers: workers, Rules: &rules})
	}
	wants := map[matching.Config][]matching.Match{}
	for _, rules := range []matching.Config{full, noR4, noR1R4} {
		out, err := resolve(built, 1, rules)
		if err != nil {
			t.Fatal(err)
		}
		wants[rules] = out.Matches
	}
	badWeights := []float64{0, -0.5, math.NaN(), math.Inf(1)}
	for si, c := range sets {
		for _, weight := range []bool{false, true} {
			if weight && c.edges == nil {
				continue // a row of IDs carries no weights
			}
			for _, read := range []bool{true, false} {
				what := fmt.Sprintf("%s %s in a row the resolution %s", c.name,
					map[bool]string{false: "target out of range", true: "bad weight"}[weight],
					map[bool]string{false: "does not read", true: "reads"}[read])
				loaded, err := ReadSnapshot(img.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				sub := loaded.Substrate()
				lg, err := sub.ExportGraph(ctx)
				if err != nil {
					t.Fatal(err)
				}
				row := c.unread
				if read {
					row = c.read
				}
				switch {
				case c.ids != nil:
					r := c.ids(lg)
					r.Flat[r.Off[row]] = kb.EntityID(c.below)
				case weight:
					r := c.edges(lg)
					r.Flat[r.Off[row]] = graph.NewEdge(r.Flat[r.Off[row]].To, badWeights[si%len(badWeights)])
				default:
					r := c.edges(lg)
					r.Flat[r.Off[row]] = graph.NewEdge(kb.EntityID(c.below), r.Flat[r.Off[row]].Weight())
				}
				wantErr := graph.ErrOutOfRange
				if weight {
					wantErr = graph.ErrBadWeight
				}
				if read {
					for _, workers := range []int{1, 4} {
						if _, err := resolve(sub, workers, full); !errors.Is(err, wantErr) {
							t.Errorf("%s, %d workers: ResolveWith error %v, want %v", what, workers, err, wantErr)
						}
					}
				} else {
					out, err := resolve(sub, 1, c.unreadWith)
					if err != nil {
						t.Errorf("%s: ResolveWith failed: %v", what, err)
					} else if !reflect.DeepEqual(out.Matches, wants[c.unreadWith]) {
						t.Errorf("%s: ResolveWith gave %d matches, the built pair %d", what, len(out.Matches), len(wants[c.unreadWith]))
					}
				}
				if err := sub.Verify(); !errors.Is(err, wantErr) {
					t.Errorf("%s: Verify error %v, want %v", what, err, wantErr)
				}
			}
		}
	}
}

// The R4 back-edge flag a replay reports (QueryMatch.Reciprocal) is read as
// the batch R4 reads it: checked. On BBCmusic-DBpedia ×0.1 read back from a
// snapshot, one candidate of a replayed entity gets an out-of-range target
// at the head of each of its α₂, β₂ and γ₂ rows that holds one. Replaying
// that entity, by ID or through its re-description, fails with
// graph.ErrOutOfRange instead of reporting a flag read from damaged rows; a
// replay whose candidates exclude the damaged one answers as on the built
// pair, and so does a description of a new entity, which has no back-edge
// to test.
func TestDamagedCandidateRowsFailReplay(t *testing.T) {
	d, err := GenerateBenchmark(ScaleProfile(BBCMusicDBpediaProfile(), 0.1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cfg := context.Background(), Config{Workers: 1}
	built, err := BuildSubstrate(ctx, d.K1, d.K2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := WriteSnapshot(&img, built); err != nil {
		t.Fatal(err)
	}
	g, err := built.ExportGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n1 := built.K1().Len()
	held := func(c EntityID) int {
		k := 0
		for _, off := range [][]int64{g.Alpha2.Off, g.Beta2.Off, g.Gamma2.Off} {
			if off[c+1] > off[c] {
				k++
			}
		}
		return k
	}
	// The first entity with a reciprocal candidate whose three rows hold
	// entries, and the first entity none of whose candidates is that one.
	self, cand := kb.NoEntity, kb.NoEntity
	replays := make([][]QueryMatch, n1)
	for e := range n1 {
		ms, err := ReplayEntity(ctx, built, EntityID(e), cfg)
		if err != nil {
			t.Fatal(err)
		}
		replays[e] = ms
		for _, m := range ms {
			if self == kb.NoEntity && m.Reciprocal && held(m.Candidate) == 3 {
				self, cand = EntityID(e), m.Candidate
			}
		}
	}
	if self == kb.NoEntity {
		t.Fatal("no reciprocal candidate holds α₂, β₂ and γ₂ entries; the fixture no longer covers the case")
	}
	other := kb.NoEntity
	for e, ms := range replays {
		ranks := func(m QueryMatch) bool { return m.Candidate == cand }
		if other == kb.NoEntity && len(ms) > 0 && !slices.ContainsFunc(ms, ranks) {
			other = EntityID(e)
		}
	}
	if other == kb.NoEntity {
		t.Fatal("every replay ranks the damaged candidate; the fixture no longer covers the case")
	}

	loaded, err := ReadSnapshot(img.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sub := loaded.Substrate()
	lg, err := sub.ExportGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := kb.EntityID(n1) // no E1 entity
	lg.Alpha2.Flat[lg.Alpha2.Off[cand]] = out
	for _, r := range []graph.Rows[graph.Edge]{lg.Beta2, lg.Gamma2} {
		r.Flat[r.Off[cand]] = graph.NewEdge(out, r.Flat[r.Off[cand]].Weight())
	}
	if _, err := ReplayEntity(ctx, sub, self, cfg); !errors.Is(err, graph.ErrOutOfRange) {
		t.Errorf("replay of entity %d, candidate %d damaged: error %v, want graph.ErrOutOfRange", self, cand, err)
	}
	if _, err := QueryEntity(ctx, sub, QueryFromEntity(sub.K1(), self), cfg); !errors.Is(err, graph.ErrOutOfRange) {
		t.Errorf("re-description of entity %d, candidate %d damaged: error %v, want graph.ErrOutOfRange", self, cand, err)
	}
	if ms, err := ReplayEntity(ctx, sub, other, cfg); err != nil || !reflect.DeepEqual(ms, replays[other]) {
		t.Errorf("replay of entity %d, which does not rank the damaged candidate: (%v, %v), want the built pair's answer", other, ms, err)
	}
	fresh := QueryFromEntity(sub.K1(), self)
	fresh.URI, fresh.SelfURI = "q:new", ""
	if _, err := QueryEntity(ctx, sub, fresh, cfg); err != nil {
		t.Errorf("a new entity's description, which tests no back-edge: %v", err)
	}
}
