package kb

import (
	"slices"
	"testing"
)

func TestSchemaInternsOnce(t *testing.T) {
	s := NewSchema()
	p1 := s.InternPred("knows")
	p2 := s.InternPred("cites")
	if p1 == p2 {
		t.Fatal("distinct predicates got the same ID")
	}
	if got := s.InternPred("knows"); got != p1 {
		t.Errorf("re-intern returned %d, want %d", got, p1)
	}
	if s.Pred(p2) != "cites" {
		t.Errorf("Pred(%d) = %q", p2, s.Pred(p2))
	}
	if id, ok := s.LookupPred("knows"); !ok || id != p1 {
		t.Errorf("LookupPred = %d,%v", id, ok)
	}
	if _, ok := s.LookupAttr("never-interned"); ok {
		t.Error("LookupAttr found an attribute that was never interned")
	}
	if s.Preds() != 2 || s.Attrs() != 0 {
		t.Errorf("counts = %d preds, %d attrs", s.Preds(), s.Attrs())
	}
}

// The columnar spans must hold every statement, ID-sorted, with values in
// normalized form.
func TestColumnarSpans(t *testing.T) {
	b := NewBuilder("T")
	a := b.AddEntity("a")
	bb := b.AddEntity("b")
	c := b.AddEntity("c")
	b.AddObject(a, "zeta", "c")
	b.AddObject(a, "alpha", "b")
	b.AddObject(a, "zeta", "b")
	b.AddObject(a, "zeta", "c") // duplicate statement, kept in the columns
	b.AddLiteral(a, "name", "The  Fat-Duck!")
	b.AddLiteral(a, "name", "the fat duck") // same normalized value
	b.AddLiteral(a, "addr", "Bray")
	k := b.Build()
	sch := k.Schema()

	preds, objs := k.RelationColumns(a)
	if len(preds) != 4 || len(objs) != 4 {
		t.Fatalf("relation span %v %v, want 4 rows", preds, objs)
	}
	for j := 1; j < len(preds); j++ {
		if preds[j] < preds[j-1] || (preds[j] == preds[j-1] && objs[j] < objs[j-1]) {
			t.Fatalf("relation span not (PredID, Object)-sorted: %v %v", preds, objs)
		}
	}
	attrs, vals := k.AttributeColumns(a)
	if len(attrs) != 3 {
		t.Fatalf("attribute span %v, want 3 rows", attrs)
	}
	// Both "name" statements normalize to the same ValueID.
	nameID, _ := sch.LookupAttr("name")
	var nameVals []ValueID
	for j, at := range attrs {
		if at == nameID {
			nameVals = append(nameVals, vals[j])
		}
	}
	if len(nameVals) != 2 || nameVals[0] != nameVals[1] {
		t.Errorf("normalized name values = %v, want two equal IDs", nameVals)
	}
	if got := sch.Value(nameVals[0]); got != "the fat duck" {
		t.Errorf("normalized value = %q", got)
	}
	// Entities without statements get empty spans.
	if p, o := k.RelationColumns(bb); len(p) != 0 || len(o) != 0 {
		t.Errorf("entity b relation span = %v %v, want empty", p, o)
	}
	if at, v := k.AttributeColumns(c); len(at) != 0 || len(v) != 0 {
		t.Errorf("entity c attribute span = %v %v, want empty", at, v)
	}
	// Relations() derives distinct predicates from the span without a map.
	rels := k.Relations(a)
	want := []string{"zeta", "alpha"} // PredID order = first global appearance
	slices.Sort(rels)
	slices.Sort(want)
	if !slices.Equal(rels, want) {
		t.Errorf("Relations = %v, want %v", rels, want)
	}
	// Neighbors() is the distinct, ID-sorted object set.
	if got := k.Neighbors(a); !slices.Equal(got, []EntityID{bb, c}) {
		t.Errorf("Neighbors = %v, want [%d %d]", got, bb, c)
	}
}

// Two builders over one shared Schema put both KBs in one schema-ID space,
// mirroring the shared token Interner.
func TestSharedSchemaAcrossPair(t *testing.T) {
	sch := NewSchema()
	b1 := NewBuilderWithDicts("A", nil, sch)
	b2 := NewBuilderWithDicts("B", nil, sch)
	x := b1.AddEntity("x")
	b1.AddEntity("y")
	b1.AddObject(x, "knows", "y")
	b1.AddLiteral(x, "label", "X")
	u := b2.AddEntity("u")
	b2.AddEntity("v")
	b2.AddObject(u, "knows", "v")
	b2.AddLiteral(u, "label", "X")
	k1, k2 := b1.Build(), b2.Build()
	if k1.Schema() != k2.Schema() {
		t.Fatal("KBs do not share the schema")
	}
	p1, _ := k1.RelationColumns(x)
	p2, _ := k2.RelationColumns(u)
	if p1[0] != p2[0] {
		t.Errorf("shared predicate has IDs %d vs %d", p1[0], p2[0])
	}
	a1, v1 := k1.AttributeColumns(x)
	a2, v2 := k2.AttributeColumns(u)
	if a1[0] != a2[0] || v1[0] != v2[0] {
		t.Errorf("shared attribute/value IDs differ: %v/%v vs %v/%v", a1, v1, a2, v2)
	}
	// Per-KB distinct counts stay per-KB even with a shared dictionary.
	if k1.Attributes() != 1 || k1.RelationNames() != 1 {
		t.Errorf("k1 distinct counts = %d attrs, %d preds", k1.Attributes(), k1.RelationNames())
	}
}
