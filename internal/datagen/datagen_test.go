package datagen

import (
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/eval"
	"minoaner/internal/kb"
)

// tiny returns a small, fast profile for unit tests.
func tiny() Profile {
	p := Restaurant()
	p.Name = "tiny"
	p.Seed = 42
	return Scale(p, 0.5)
}

func TestGenerateBasicShape(t *testing.T) {
	p := tiny()
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.K1.Len() != p.E1Size || d.K2.Len() != p.E2Size {
		t.Fatalf("sizes = %d/%d, want %d/%d", d.K1.Len(), d.K2.Len(), p.E1Size, p.E2Size)
	}
	if d.GT.Len() != p.Matches {
		t.Fatalf("GT = %d, want %d", d.GT.Len(), p.Matches)
	}
	if len(d.Profiles) != p.Matches {
		t.Fatalf("profiles = %d, want %d", len(d.Profiles), p.Matches)
	}
	// Entity IDs are shuffled (no ID-aligned ground truth, which would leak
	// recall through ID-based tie-breaking), but URIs stay logically
	// aligned: "e1:i" matches "e2:i".
	aligned := 0
	for _, pr := range d.GT.Pairs() {
		if pr.E1 == pr.E2 {
			aligned++
		}
		if d.K1.Entity(pr.E1).URI[3:] != d.K2.Entity(pr.E2).URI[3:] {
			t.Fatalf("GT pair %v URIs misaligned", pr)
		}
	}
	if aligned == d.GT.Len() {
		t.Error("ground truth is fully ID-aligned; permutation missing")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.K1.Triples() != b.K1.Triples() || a.K2.Triples() != b.K2.Triples() {
		t.Fatal("triple counts differ between identical profiles")
	}
	for i := 0; i < a.K1.Len(); i++ {
		d1, d2 := a.K1.Entity(kb.EntityID(i)), b.K1.Entity(kb.EntityID(i))
		if d1.URI != d2.URI || !reflect.DeepEqual(d1.Tokens(), d2.Tokens()) {
			t.Fatalf("entity %d differs between runs", i)
		}
	}
	if !reflect.DeepEqual(a.Profiles, b.Profiles) {
		t.Fatal("match profiles differ between runs")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p1, p2 := tiny(), tiny()
	p2.Seed = 4242
	a, _ := Generate(p1)
	b, _ := Generate(p2)
	same := true
	for i := 0; i < a.K1.Len() && same; i++ {
		if !reflect.DeepEqual(a.K1.Entity(kb.EntityID(i)).Tokens(), b.K1.Entity(kb.EntityID(i)).Tokens()) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical KBs")
	}
}

func TestStrongMatchesShareRareTokens(t *testing.T) {
	d, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for pr, mp := range d.Profiles {
		if mp.Category != Strong {
			continue
		}
		shared := sharedTokenCount(d.K1.Entity(pr.E1), d.K2.Entity(pr.E2))
		if shared < 3 { // ≥2 rare + ≥1 mid planted
			t.Fatalf("strong match %v shares only %d tokens", pr, shared)
		}
	}
}

func sharedTokenCount(a, b *kb.Description) int {
	count := 0
	for _, t := range a.Tokens() {
		if b.HasToken(t) {
			count++
		}
	}
	return count
}

func TestNameMatchesShareUniqueName(t *testing.T) {
	d, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Collect name values (attribute v0:a0) per KB.
	nameCount1 := map[string]int{}
	nameCount2 := map[string]int{}
	for i := 0; i < d.K1.Len(); i++ {
		for _, v := range d.K1.Entity(kb.EntityID(i)).Values("v0:a0") {
			nameCount1[kb.NormalizeName(v)]++
		}
	}
	for i := 0; i < d.K2.Len(); i++ {
		for _, v := range d.K2.Entity(kb.EntityID(i)).Values("v0:a0") {
			nameCount2[kb.NormalizeName(v)]++
		}
	}
	withName := 0
	for pr, mp := range d.Profiles {
		n1 := d.K1.Entity(pr.E1).Values("v0:a0")
		n2 := d.K2.Entity(pr.E2).Values("v0:a0")
		if len(n1) != 1 || len(n2) != 1 {
			t.Fatalf("match %v: name attribute missing", pr)
		}
		same := kb.NormalizeName(n1[0]) == kb.NormalizeName(n2[0])
		if mp.HasUniqueName {
			withName++
			if !same {
				t.Fatalf("match %v flagged HasUniqueName but names differ: %q vs %q", pr, n1[0], n2[0])
			}
			key := kb.NormalizeName(n1[0])
			if nameCount1[key] != 1 || nameCount2[key] != 1 {
				t.Fatalf("shared name %q not unique: %d/%d uses", key, nameCount1[key], nameCount2[key])
			}
		} else if same {
			t.Fatalf("match %v shares a name but is not flagged", pr)
		}
	}
	if withName == 0 {
		t.Error("no name matches generated despite PName > 0")
	}
}

func TestCategoryMixApproximatesProfile(t *testing.T) {
	p := YAGOIMDb()
	p = Scale(p, 0.1)
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[TokenCategory]int{}
	for _, mp := range d.Profiles {
		counts[mp.Category]++
	}
	total := float64(d.GT.Len())
	strongFrac := float64(counts[Strong]) / total
	if strongFrac < p.PStrong-0.1 || strongFrac > p.PStrong+0.1 {
		t.Errorf("strong fraction = %v, want ≈ %v", strongFrac, p.PStrong)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{}, // no matches
		{Matches: 10, E1Size: 5, E2Size: 20, Attrs1: 5, Attrs2: 5, Rels1: 1, Rels2: 1}, // E1 < matches
		func() Profile { p := tiny(); p.PStrong = 0.9; p.PNearly = 0.9; return p }(),   // mix > 1
		func() Profile { p := tiny(); p.Attrs1 = 1; return p }(),                       // too few attrs
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("profile %d should be rejected", i)
		}
	}
}

func TestPresetsAreValid(t *testing.T) {
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
	}
	if len(Presets()) != 4 {
		t.Error("want 4 presets")
	}
}

func TestScale(t *testing.T) {
	p := Scale(RexaDBLP(), 0.1)
	if p.Matches != 120 || p.E1Size != 150 || p.E2Size != 3000 {
		t.Errorf("scaled sizes = %d/%d/%d", p.Matches, p.E1Size, p.E2Size)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("scaled profile invalid: %v", err)
	}
	// Extreme shrink keeps invariants.
	q := Scale(Restaurant(), 0.001)
	if q.Matches < 1 || q.E1Size < q.Matches || q.E2Size < q.Matches {
		t.Errorf("extreme scale broken: %+v", q)
	}
}

// Scale leaves the name pools of every preset alone at the scales in use
// (pinned digests depend on it) and grows them once the scaled profile would
// run out of unique names — where Generate used to spin forever.
func TestScaleGrowsNamePoolsOnlyWhenNeeded(t *testing.T) {
	for _, p := range Presets() {
		for _, f := range []float64{0.05, 0.25, 1} {
			if q := Scale(p, f); q.NamePool != p.NamePool || q.YearPool != p.YearPool {
				t.Errorf("%s ×%g: name pools %d/%d, want the preset's %d/%d", p.Name, f, q.NamePool, q.YearPool, p.NamePool, p.YearPool)
			}
		}
		for _, f := range []float64{2, 5, 40} {
			q := Scale(p, f)
			if load := q.nameDemand() / float64(q.nameCapacity()); load > maxNameLoad {
				t.Errorf("%s ×%g: %.0f%% of the %d names in use, want at most %.0f%%", p.Name, f, 100*load, q.nameCapacity(), 100*maxNameLoad)
			}
		}
	}
	// 31,000 entities against the preset's 22,500 names.
	d, err := Generate(Scale(Restaurant(), 12))
	if err != nil {
		t.Fatal(err)
	}
	if d.K1.Len() != 339*12 || d.K2.Len() != 2256*12 {
		t.Errorf("generated %d × %d entities", d.K1.Len(), d.K2.Len())
	}
}

// A profile whose pools cannot name its entities is an error, not a hang.
func TestGenerateRejectsExhaustedNameSpace(t *testing.T) {
	p := tiny()
	p.NamePool, p.YearPool = 3, 2
	if _, err := Generate(p); err == nil || !strings.Contains(err.Error(), "unique names") {
		t.Fatalf("Generate with 18 names for %d entities: err = %v", p.E1Size+p.E2Size, err)
	}
}

func TestTable1Measured(t *testing.T) {
	d, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	row := d.Table1()
	if row.E1Entities != d.K1.Len() || row.Matches != d.GT.Len() {
		t.Errorf("row = %+v", row)
	}
	if row.E1AvgTokens <= 0 || row.E2AvgTokens <= 0 {
		t.Error("avg tokens not measured")
	}
	if row.E1Types == 0 || row.E2Types == 0 {
		t.Error("types not measured")
	}
	// BBC profile must show the token-volume skew.
	bb, err := Generate(Scale(BBCMusicDBpedia(), 0.05))
	if err != nil {
		t.Fatal(err)
	}
	r2 := bb.Table1()
	if r2.E2AvgTokens < 2*r2.E1AvgTokens {
		t.Errorf("BBC skew: avg tokens %v vs %v, want ≥2× skew", r2.E1AvgTokens, r2.E2AvgTokens)
	}
}

func TestCategoryString(t *testing.T) {
	if Strong.String() != "strong" || Nearly.String() != "nearly" || Weak.String() != "weak" {
		t.Error("category labels")
	}
}

func TestGroundTruthAlignment(t *testing.T) {
	d, err := Generate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// URIs of matched pairs carry the same index.
	for _, pr := range d.GT.Pairs() {
		u1 := d.K1.Entity(pr.E1).URI
		u2 := d.K2.Entity(pr.E2).URI
		if u1[3:] != u2[3:] { // strip "e1:"/"e2:"
			t.Fatalf("pair %v URIs misaligned: %s vs %s", pr, u1, u2)
		}
	}
	_ = eval.Pair{}
}
