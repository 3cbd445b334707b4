// Package testkb provides shared knowledge-base fixtures for tests across
// the MinoanER packages, most importantly the running example of the paper's
// Figure 1 (the Fat Duck restaurant described by Wikidata and DBpedia).
package testkb

import (
	"fmt"

	"minoaner/internal/kb"
)

// Figure1 builds the two KB fragments of the paper's Figure 1. The Wikidata
// side describes Restaurant1 with chef "John Lake A" located in Bray, United
// Kingdom; the DBpedia side describes Restaurant2 with chef "Jonny Lake" in
// county Berkshire. Both chef descriptions carry the shared unique name
// "J. Lake" used by Example 3.4 (α = 1 edge), and the Bray / Berkshire
// descriptions share infrequent tokens so their β edge is non-trivial.
//
// Ground truth: Restaurant1=Restaurant2, JohnLakeA=JonnyLake, Bray=Berkshire
// (location granularity differs but they refer to the same place in the
// example), UK=England.
func Figure1() (*kb.KB, *kb.KB) {
	w := kb.NewBuilder("Wikidata")
	r1 := w.AddEntity("w:Restaurant1")
	chef1 := w.AddEntity("w:JohnLakeA")
	bray := w.AddEntity("w:Bray")
	uk := w.AddEntity("w:UK")
	w.AddLiteral(r1, "label", "The Fat Duck")
	w.AddLiteral(r1, "stars", "3 Michelin")
	w.AddObject(r1, "hasChef", "w:JohnLakeA")
	w.AddObject(r1, "territorial", "w:Bray")
	w.AddObject(r1, "inCountry", "w:UK")
	w.AddLiteral(chef1, "label", "John Lake A")
	w.AddLiteral(chef1, "alias", "J. Lake")
	w.AddLiteral(bray, "label", "Bray")
	w.AddLiteral(bray, "description", "village Berkshire England")
	w.AddLiteral(uk, "label", "United Kingdom")

	d := kb.NewBuilder("DBpedia")
	r2 := d.AddEntity("d:Restaurant2")
	chef2 := d.AddEntity("d:JonnyLake")
	berk := d.AddEntity("d:Berkshire")
	eng := d.AddEntity("d:England")
	d.AddLiteral(r2, "name", "The Fat Duck restaurant")
	d.AddObject(r2, "headChef", "d:JonnyLake")
	d.AddObject(r2, "county", "d:Berkshire")
	d.AddLiteral(chef2, "name", "Jonny Lake")
	d.AddLiteral(chef2, "nick", "J. Lake")
	d.AddLiteral(berk, "name", "Berkshire")
	d.AddLiteral(berk, "comment", "county England Bray village")
	d.AddObject(berk, "partOf", "d:England")
	d.AddLiteral(eng, "name", "England")
	d.AddLiteral(eng, "nick", "Albion")
	return w.Build(), d.Build()
}

// Clone rebuilds an identical copy of a KB (used by tests that need two
// distinct instances of the same content).
func Clone(src *kb.KB) *kb.KB {
	b := kb.NewBuilder(src.Name())
	for i := 0; i < src.Len(); i++ {
		b.AddEntity(src.Entity(kb.EntityID(i)).URI)
	}
	for i := 0; i < src.Len(); i++ {
		d := src.Entity(kb.EntityID(i))
		for _, av := range d.Attrs {
			b.AddLiteral(kb.EntityID(i), av.Attribute, av.Value)
		}
		for _, r := range d.Relations {
			b.AddObject(kb.EntityID(i), r.Predicate, src.Entity(r.Object).URI)
		}
	}
	return b.Build()
}

// Skewed builds a KB pair of n entities per side whose token blocks follow
// a heavy-tailed size distribution: a handful of stop-word-like tokens
// shared by most entities plus unique tokens per pair. This is the workload that exercises the
// dynamic chunked scheduler — static spans would process the skewed
// entities in one straggling partition.
func Skewed(n int) (*kb.KB, *kb.KB) {
	b1 := kb.NewBuilder("S1")
	b2 := kb.NewBuilder("S2")
	for i := 0; i < n; i++ {
		u1 := b1.AddEntity(fmt.Sprintf("s1:e%d", i))
		u2 := b2.AddEntity(fmt.Sprintf("s2:e%d", i))
		// Power-law-ish sharing: entity i carries every popular token p
		// with p dividing i, so token p appears in ~n/p descriptions.
		label1 := fmt.Sprintf("uniq%dtok", i)
		label2 := fmt.Sprintf("uniq%dtok", i)
		for p := 1; p <= 16; p++ {
			if i%p == 0 {
				label1 += fmt.Sprintf(" pop%d", p)
				label2 += fmt.Sprintf(" pop%d", p)
			}
		}
		b1.AddLiteral(u1, "label", label1)
		b2.AddLiteral(u2, "label", label2)
		if i > 0 {
			b1.AddObject(u1, "linked", fmt.Sprintf("s1:e%d", i-1))
			b2.AddObject(u2, "linked", fmt.Sprintf("s2:e%d", i-1))
		}
	}
	return b1.Build(), b2.Build()
}
