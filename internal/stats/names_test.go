package stats

import (
	"reflect"
	"testing"

	"minoaner/internal/kb"
	"minoaner/internal/testkb"
)

func TestAttributeImportances(t *testing.T) {
	// "label": on all 4 entities, 4 distinct values → support 1, discr 1.
	// "category": on all 4 entities, 1 shared value → support 1, discr .25.
	// "note": on 1 entity → support .25, discr 1.
	b := kb.NewBuilder("X")
	for i, name := range []string{"Alpha", "Beta", "Gamma", "Delta"} {
		id := b.AddEntity(name)
		b.AddLiteral(id, "label", name)
		b.AddLiteral(id, "category", "Thing")
		if i == 0 {
			b.AddLiteral(id, "note", "special")
		}
	}
	k := b.Build()
	stats := attributeImportances(t, seq, k)
	if len(stats) != 3 {
		t.Fatalf("got %d attributes, want 3", len(stats))
	}
	if stats[0].Attribute != "label" {
		t.Fatalf("top attribute = %q, want label (stats: %+v)", stats[0].Attribute, stats)
	}
	if stats[0].Support != 1 || stats[0].Discriminability != 1 || stats[0].Importance != 1 {
		t.Errorf("label stats = %+v, want support=discr=imp=1", stats[0])
	}
	// category: support 1, discr 1/4 → harmonic mean 0.4.
	var cat AttributeStat
	for _, s := range stats {
		if s.Attribute == "category" {
			cat = s
		}
	}
	if cat.Importance != 0.4 {
		t.Errorf("importance(category) = %v, want 0.4", cat.Importance)
	}
}

func TestNameAttributesTopK(t *testing.T) {
	w, _ := testkb.Figure1()
	attrs := nameAttributes(t, seq, w, 2)
	if len(attrs) != 2 {
		t.Fatalf("name attributes k=2 = %v", attrs)
	}
	// "label" is on all entities with distinct values: must be selected.
	found := false
	for _, a := range attrs {
		if a == "label" {
			found = true
		}
	}
	if !found {
		t.Errorf("name attributes = %v, want to include label", attrs)
	}
	// k larger than attribute count returns all.
	all := nameAttributes(t, seq, w, 100)
	if len(all) != w.Attributes() {
		t.Errorf("name attributes k=100 returned %d of %d", len(all), w.Attributes())
	}
	// k=0 returns none.
	if got := nameAttributes(t, seq, w, 0); len(got) != 0 {
		t.Errorf("name attributes k=0 = %v", got)
	}
}

func TestNamesOf(t *testing.T) {
	w, d := testkb.Figure1()
	wAttrs := nameAttributes(t, seq, w, 2)
	dAttrs := nameAttributes(t, seq, d, 2)
	chef1 := w.Entity(w.Lookup("w:JohnLakeA"))
	chef2 := d.Entity(d.Lookup("d:JonnyLake"))
	n1 := NamesOf(chef1, wAttrs)
	n2 := NamesOf(chef2, dAttrs)
	// Example 3.4: the two chefs share the unique normalized name "j lake".
	if !contains(n1, "j lake") {
		t.Errorf("names(JohnLakeA) = %v, want to contain %q", n1, "j lake")
	}
	if !contains(n2, "j lake") {
		t.Errorf("names(JonnyLake) = %v, want to contain %q", n2, "j lake")
	}
}

func TestNamesOfEdgeCases(t *testing.T) {
	b := kb.NewBuilder("X")
	e := b.AddEntity("e")
	b.AddLiteral(e, "label", "!!!") // normalizes to empty → dropped
	b.AddLiteral(e, "label", "Twice")
	b.AddLiteral(e, "label", "twice") // duplicate after normalization
	k := b.Build()
	got := NamesOf(k.Entity(e), []string{"label"})
	if !reflect.DeepEqual(got, []string{"twice"}) {
		t.Errorf("NamesOf = %v, want [twice]", got)
	}
	if got := NamesOf(k.Entity(e), nil); len(got) != 0 {
		t.Errorf("NamesOf with no name attributes = %v, want empty", got)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
