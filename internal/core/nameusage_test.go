package core

import (
	"context"
	"slices"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

// refNameUsages is the name-usage index as a map tally over every entity's
// normalized names, each side's last carrier kept, laid out in name order:
// the form the query path had before nameUsagesOf, kept as its oracle.
func refNameUsages(s *Substrate) (names []string, n1, n2 []int32, e1, e2 []kb.EntityID) {
	type users struct {
		n1, n2 int32
		e1, e2 kb.EntityID
	}
	idx := map[string]users{}
	for i := range s.k1.Len() {
		for _, n := range s.names1.Names(kb.EntityID(i)) {
			u := idx[n]
			u.n1, u.e1 = u.n1+1, kb.EntityID(i)
			idx[n] = u
		}
	}
	for j := range s.k2.Len() {
		for _, n := range s.names2.Names(kb.EntityID(j)) {
			u := idx[n]
			u.n2, u.e2 = u.n2+1, kb.EntityID(j)
			idx[n] = u
		}
	}
	for n := range idx {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		u := idx[n]
		n1, n2, e1, e2 = append(n1, u.n1), append(n2, u.n2), append(e1, u.e1), append(e2, u.e2)
	}
	return names, n1, n2, e1, e2
}

// reversed rebuilds k with its entities in reverse order, in a dictionary
// and schema of its own: its values take other ValueIDs than k's.
func reversed(k *kb.KB) *kb.KB {
	b := kb.NewBuilder(k.Name() + "-reversed")
	for i := k.Len() - 1; i >= 0; i-- {
		e := k.Entity(kb.EntityID(i))
		id := b.AddEntity(e.URI)
		for _, av := range e.Attrs {
			b.AddLiteral(id, av.Attribute, av.Value)
		}
		for _, r := range e.Relations {
			b.AddObject(id, r.Predicate, k.URI(r.Object))
		}
	}
	return b.Build()
}

// The sorted name index must equal the map tally column for column, on the
// four presets (one shared dictionary and schema) and on skewedKBs, whose
// KBs have a dictionary and a schema each — once as built, where equal names
// happen to share ValueIDs, and once with E2 rebuilt in reverse, where they
// do not.
func TestNameUsagesMatchMapReference(t *testing.T) {
	type pair struct {
		name   string
		k1, k2 *kb.KB
	}
	s1, s2 := skewedKBs(300)
	pairs := []pair{{"skewed", s1, s2}, {"skewed-reversed", s1, reversed(s2)}}
	if s1.Schema() == s2.Schema() {
		t.Fatal("skewedKBs share a schema; the separate-schema case is not covered")
	}
	for _, p := range datagen.Presets() {
		d, err := datagen.Generate(datagen.Scale(p, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{p.Name, d.K1, d.K2})
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			sub, err := BuildSubstrate(context.Background(), p.k1, p.k2, Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := nameUsagesOf(sub)
			names, n1, n2, e1, e2 := refNameUsages(sub)
			if len(names) == 0 {
				t.Fatal("no names; test is vacuous")
			}
			gotNames := make([]string, got.Names.Len())
			for i := range gotNames {
				gotNames[i] = got.Names.At(i)
			}
			for _, c := range []struct {
				col string
				eq  bool
			}{
				{"Names", slices.Equal(gotNames, names)},
				{"N1", slices.Equal(got.N1, n1)},
				{"N2", slices.Equal(got.N2, n2)},
				{"E1", slices.Equal(got.E1, e1)},
				{"E2", slices.Equal(got.E2, e2)},
			} {
				if !c.eq {
					t.Errorf("column %s differs from the map tally (%d names, want %d)", c.col, got.Len(), len(names))
				}
			}
		})
	}
}
