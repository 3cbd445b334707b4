package core

import (
	"context"
	"slices"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
)

// refNameTable is the name table as a map tally over every entity's
// normalized names, laid out in name order with every carrier of each side,
// less the names no E2 entity carries: its oracle.
func refNameTable(s *Substrate) (names []string, e1, e2 [][]kb.EntityID) {
	type carriers struct{ e1, e2 []kb.EntityID }
	idx := map[string]*carriers{}
	at := func(n string) *carriers {
		if idx[n] == nil {
			idx[n] = &carriers{}
		}
		return idx[n]
	}
	for i := range s.k1.Len() {
		for _, n := range s.names1.Names(kb.EntityID(i)) {
			c := at(n)
			c.e1 = append(c.e1, kb.EntityID(i))
		}
	}
	for j := range s.k2.Len() {
		for _, n := range s.names2.Names(kb.EntityID(j)) {
			c := at(n)
			c.e2 = append(c.e2, kb.EntityID(j))
		}
	}
	for n, c := range idx {
		if len(c.e2) > 0 {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	for _, n := range names {
		e1, e2 = append(e1, idx[n].e1), append(e2, idx[n].e2)
	}
	return names, e1, e2
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

// The name table must equal the map tally row for row, carriers and all,
// on the four presets (one shared dictionary and schema) and on skewedKBs,
// whose KBs have a dictionary and a schema each — once as built, where
// equal names happen to share ValueIDs, and once with E2 rebuilt in
// reverse, where they do not.
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
			got := sub.names
			names, e1, e2 := refNameTable(sub)
			if len(names) == 0 {
				t.Fatal("no names; test is vacuous")
			}
			if got.Keys.Len() != len(names) {
				t.Fatalf("%d names, want %d", got.Keys.Len(), len(names))
			}
			for i, n := range names {
				if got.Keys.At(i) != n || !slices.Equal(got.E1.Row(i), e1[i]) || !slices.Equal(got.E2.Row(i), e2[i]) {
					t.Fatalf("row %d: %q %v %v, want %q %v %v", i, got.Keys.At(i), got.E1.Row(i), got.E2.Row(i), n, e1[i], e2[i])
				}
			}
		})
	}
}
