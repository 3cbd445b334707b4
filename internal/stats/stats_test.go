package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"minoaner/internal/kb"
	"minoaner/internal/parallel"
	"minoaner/internal/testkb"
)

var seq = parallel.Sequential()

func TestBuildEF(t *testing.T) {
	w, _ := testkb.Figure1()
	ef := BuildEF(seq, w)
	// "lake" appears in one Wikidata description (the chef).
	if got := ef.EF("lake"); got != 1 {
		t.Errorf(`EF("lake") = %d, want 1`, got)
	}
	// "the" appears only in Restaurant1's values.
	if got := ef.EF("the"); got != 1 {
		t.Errorf(`EF("the") = %d, want 1`, got)
	}
	// "berkshire" appears in Bray's description.
	if got := ef.EF("berkshire"); got != 1 {
		t.Errorf(`EF("berkshire") = %d, want 1`, got)
	}
	if got := ef.EF("nonexistent-token"); got != 0 {
		t.Errorf("EF(missing) = %d, want 0", got)
	}
	if ef.DistinctTokens() == 0 {
		t.Error("DistinctTokens = 0")
	}
}

func TestEFParallelMatchesSequential(t *testing.T) {
	w, _ := testkb.Figure1()
	ref := BuildEF(seq, w)
	for _, workers := range []int{2, 4, 8} {
		got := BuildEF(parallel.New(workers), w)
		if got.DistinctTokens() != ref.DistinctTokens() {
			t.Fatalf("workers=%d: distinct tokens differ", workers)
		}
		for _, tok := range []string{"lake", "fat", "duck", "bray", "berkshire"} {
			if got.EF(tok) != ref.EF(tok) {
				t.Fatalf("workers=%d: EF(%q) differs", workers, tok)
			}
		}
	}
}

func TestTokenWeight(t *testing.T) {
	// A token unique in both KBs contributes exactly 1 (paper §2.1 note ii).
	if got := TokenWeight(1, 1); got != 1 {
		t.Errorf("TokenWeight(1,1) = %v, want 1", got)
	}
	// Frequent tokens contribute little.
	if w := TokenWeight(1000, 1000); w > 0.06 {
		t.Errorf("TokenWeight(1000,1000) = %v, want small", w)
	}
	// Monotone decreasing in frequency.
	if TokenWeight(2, 2) <= TokenWeight(10, 10) {
		t.Error("TokenWeight must decrease with frequency")
	}
	// Degenerate inputs stay finite.
	if w := TokenWeight(0, 0); math.IsInf(w, 0) || math.IsNaN(w) {
		t.Errorf("TokenWeight(0,0) = %v, want finite", w)
	}
}

func TestValueSimSharedTokens(t *testing.T) {
	w, d := testkb.Figure1()
	ef1, ef2 := BuildEF(seq, w), BuildEF(seq, d)
	chef1 := w.Entity(w.Lookup("w:JohnLakeA"))
	chef2 := d.Entity(d.Lookup("d:JonnyLake"))
	// Shared tokens: "lake", "j" (from "J. Lake"). Both infrequent.
	sim := ValueSim(chef1, chef2, ef1, ef2)
	if sim <= 0 {
		t.Fatalf("ValueSim(chefs) = %v, want > 0", sim)
	}
	// No shared tokens → 0.
	uk := w.Entity(w.Lookup("w:UK"))
	if got := ValueSim(uk, chef2, ef1, ef2); got != 0 {
		t.Errorf("ValueSim(UK, chef) = %v, want 0", got)
	}
}

// Prop. 1 (partial): valueSim is symmetric and self-similarity dominates
// cross-similarity.
func TestValueSimMetricProperties(t *testing.T) {
	w, d := testkb.Figure1()
	ef1, ef2 := BuildEF(seq, w), BuildEF(seq, d)
	for i := 0; i < w.Len(); i++ {
		di := w.Entity(kb.EntityID(i))
		for j := 0; j < d.Len(); j++ {
			dj := d.Entity(kb.EntityID(j))
			ab := ValueSim(di, dj, ef1, ef2)
			ba := ValueSim(dj, di, ef2, ef1)
			if math.Abs(ab-ba) > 1e-12 {
				t.Fatalf("symmetry violated: %v vs %v", ab, ba)
			}
			if ab < 0 {
				t.Fatalf("negative similarity %v", ab)
			}
			// valueSim(ei,ei) >= valueSim(ei,ej), computed within E1's EF.
			self := ValueSim(di, di, ef1, ef1)
			cross := ValueSim(di, dj, ef1, ef1)
			if self+1e-12 < cross {
				t.Fatalf("self-similarity %v < cross %v", self, cross)
			}
		}
	}
}

func TestRelationImportancesOrdering(t *testing.T) {
	// Hand-checkable KB: 10 entities.
	//   "type": 6 instances, 1 object  → support .06, discr 1/6,  imp ≈ .0882
	//   "knows": 3 instances, 3 objects → support .03, discr 1,   imp ≈ .0583
	//   "owns": 1 instance, 1 object   → support .01, discr 1,    imp ≈ .0198
	b := kb.NewBuilder("X")
	ids := make([]kb.EntityID, 10)
	for i := range ids {
		ids[i] = b.AddEntity(string(rune('a' + i)))
	}
	for i := 0; i < 6; i++ {
		b.AddObject(ids[i], "type", "j") // ids[9] has URI "j"
	}
	b.AddObject(ids[0], "knows", "b")
	b.AddObject(ids[1], "knows", "c")
	b.AddObject(ids[2], "knows", "d")
	b.AddObject(ids[3], "owns", "e")
	k := b.Build()

	stats := RelationImportances(seq, k)
	if len(stats) != 3 {
		t.Fatalf("got %d relations, want 3", len(stats))
	}
	if stats[0].Predicate != "type" || stats[1].Predicate != "knows" || stats[2].Predicate != "owns" {
		t.Fatalf("order = %s,%s,%s; want type,knows,owns",
			stats[0].Predicate, stats[1].Predicate, stats[2].Predicate)
	}
	ty := stats[0]
	if ty.Instances != 6 || ty.Objects != 1 {
		t.Errorf("type stats = %+v", ty)
	}
	if math.Abs(ty.Support-0.06) > 1e-12 {
		t.Errorf("support(type) = %v, want 0.06", ty.Support)
	}
	if math.Abs(ty.Discriminability-1.0/6) > 1e-12 {
		t.Errorf("discriminability(type) = %v, want 1/6", ty.Discriminability)
	}
	wantImp := 2 * 0.06 * (1.0 / 6) / (0.06 + 1.0/6)
	if math.Abs(ty.Importance-wantImp) > 1e-12 {
		t.Errorf("importance(type) = %v, want %v", ty.Importance, wantImp)
	}
}

func TestRelationImportancesDuplicateEdges(t *testing.T) {
	// The same (subject, object) pair stated twice counts once: instances
	// is a set of pairs (Def. 2.2).
	b := kb.NewBuilder("X")
	a := b.AddEntity("a")
	b.AddEntity("b")
	b.AddObject(a, "p", "b")
	b.AddObject(a, "p", "b")
	k := b.Build()
	st := RelationImportances(seq, k)
	if st[0].Instances != 1 {
		t.Errorf("Instances = %d, want 1 (deduplicated)", st[0].Instances)
	}
}

func TestRelationImportancesEmpty(t *testing.T) {
	k := kb.NewBuilder("X").Build()
	if got := RelationImportances(seq, k); len(got) != 0 {
		t.Errorf("importances of empty KB = %v", got)
	}
}

func TestGlobalRelationOrder(t *testing.T) {
	stats := []RelationStat{{Predicate: "a"}, {Predicate: "b"}, {Predicate: "c"}}
	order := GlobalRelationOrder(stats)
	if order["a"] != 0 || order["b"] != 1 || order["c"] != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestTopNeighbors(t *testing.T) {
	w, _ := testkb.Figure1()
	rel := RelationImportances(seq, w)
	order := GlobalRelationOrder(rel)
	top := TopNeighbors(seq, w, order, 2)
	r1 := w.Lookup("w:Restaurant1")
	got := top[r1]
	if len(got) != 2 {
		t.Fatalf("top2neighbors(Restaurant1) = %v, want 2 entities", got)
	}
	// With N=3 all three neighbors appear.
	top3 := TopNeighbors(seq, w, order, 3)
	if len(top3[r1]) != 3 {
		t.Fatalf("top3neighbors(Restaurant1) = %v, want 3", top3[r1])
	}
	// N=0 disables neighbor evidence.
	top0 := TopNeighbors(seq, w, order, 0)
	if top0[r1] != nil {
		t.Errorf("top0neighbors = %v, want nil", top0[r1])
	}
	// Entities without relations have no top neighbors.
	if got := top[w.Lookup("w:UK")]; len(got) != 0 {
		t.Errorf("UK top neighbors = %v, want none", got)
	}
}

func TestTopNeighborsParallelDeterminism(t *testing.T) {
	w, _ := testkb.Figure1()
	rel := RelationImportances(seq, w)
	order := GlobalRelationOrder(rel)
	ref := TopNeighbors(seq, w, order, 2)
	for _, workers := range []int{2, 4} {
		got := TopNeighbors(parallel.New(workers), w, order, 2)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: TopNeighbors differ", workers)
		}
	}
}

func TestHarmonicMeanProperty(t *testing.T) {
	// Support and discriminability both live in [0, 1], so the property is
	// checked on that domain: 0 ≤ h(a,b) ≤ max(a,b), and h = 0 iff either
	// argument is 0.
	f := func(ra, rb uint32) bool {
		a := float64(ra) / float64(math.MaxUint32)
		b := float64(rb) / float64(math.MaxUint32)
		h := harmonicMean(a, b)
		hi := math.Max(a, b)
		if h < 0 || h > hi+1e-12 {
			return false
		}
		if (a == 0 || b == 0) != (h == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
