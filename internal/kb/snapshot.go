// KB decomposition for snapshot serialization: SnapshotParts is the flat,
// columnar view of everything a built KB holds — dictionaries, the URI
// table, per-entity token CSR, the sorted relation/attribute columns, and
// the insertion-order statement arrays behind Description.Attrs/Relations —
// and AssembleKB is its inverse. The statement arrays reuse the columnar
// offsets: buildColumns lays out exactly one columnar row per insertion-
// order statement, so per-entity counts (and therefore CSR spans) coincide.
package kb

import (
	"fmt"
	"runtime"
	"sync"
)

// SnapshotParts is the flat decomposition of one KB. All slices follow the
// KB's internal layouts exactly; a loader may hand in views over a memory-
// mapped region, which the assembled KB then aliases without copying.
type SnapshotParts struct {
	Name    string
	Triples int

	// Dict and Schema are the token and schema dictionaries (possibly shared
	// with the pair's other KB, mirroring NewBuilderWithDicts).
	Dict   *Interner
	Schema *Schema

	// URIs holds entity URIs in EntityID order, with lookup support.
	URIs *FrozenStrings

	// TokenOff/Tokens is the per-entity token CSR: entity i's sorted distinct
	// tokens are Tokens[TokenOff[i]:TokenOff[i+1]].
	TokenOff []int64
	Tokens   []TokenID

	// The six columnar arrays (see columns).
	RelOff   []int32
	RelPred  []PredID
	RelObj   []EntityID
	AttrOff  []int32
	AttrName []AttrID
	AttrVal  []ValueID

	// Insertion-order statement views behind Description.Attrs/Relations.
	// Spans reuse AttrOff/RelOff (one columnar row per statement); StmtVals
	// carries the RAW (un-normalized) literal values, without lookup support.
	StmtAttrName []AttrID
	StmtVals     *FrozenStrings
	StmtRelPred  []PredID
	StmtRelObj   []EntityID
}

// SnapshotParts decomposes the KB for serialization. The returned slices
// partly alias the KB (columns, URI bytes); the token CSR and the statement
// tables are materialized fresh.
func (k *KB) SnapshotParts() SnapshotParts {
	ents := k.ents()
	n := len(ents)
	p := SnapshotParts{
		Name:     k.name,
		Triples:  k.triples,
		Dict:     k.dict,
		Schema:   k.schema,
		TokenOff: make([]int64, n+1),
		RelOff:   k.cols.relOff,
		RelPred:  k.cols.relPred,
		RelObj:   k.cols.relObj,
		AttrOff:  k.cols.attrOff,
		AttrName: k.cols.attrName,
		AttrVal:  k.cols.attrVal,
	}
	nTok := 0
	for i := range ents {
		nTok += len(ents[i].tokens)
	}
	p.URIs = k.uris.freeze()
	p.Tokens = make([]TokenID, 0, nTok)
	for i := range ents {
		p.TokenOff[i] = int64(len(p.Tokens))
		p.Tokens = append(p.Tokens, ents[i].tokens...)
	}
	p.TokenOff[n] = int64(len(p.Tokens))

	nAttr, nRel := len(k.cols.attrName), len(k.cols.relPred)
	p.StmtAttrName = make([]AttrID, 0, nAttr)
	p.StmtRelPred = make([]PredID, 0, nRel)
	p.StmtRelObj = make([]EntityID, 0, nRel)
	vals := make([]string, 0, nAttr)
	for i := range ents {
		d := &ents[i]
		for _, av := range d.Attrs {
			// Always present: buildColumns interned every statement.
			id, _ := k.schema.LookupAttr(av.Attribute)
			p.StmtAttrName = append(p.StmtAttrName, id)
			vals = append(vals, av.Value)
		}
		for _, r := range d.Relations {
			id, _ := k.schema.LookupPred(r.Predicate)
			p.StmtRelPred = append(p.StmtRelPred, id)
			p.StmtRelObj = append(p.StmtRelObj, r.Object)
		}
	}
	p.StmtVals = FreezeStrings(vals, false)
	return p
}

// AssembleKB rebuilds an immutable KB from its flat decomposition. The KB
// aliases the parts' arrays (read-only); descriptions are materialized from
// two flat allocations, with attribute/predicate strings aliasing the frozen
// schema tables and literal values the frozen value blob.
func AssembleKB(p SnapshotParts) (*KB, error) {
	if p.Dict == nil || p.Schema == nil || p.URIs == nil || p.StmtVals == nil {
		return nil, fmt.Errorf("kb: assemble: missing dictionary or string table")
	}
	n := p.URIs.Len()
	if len(p.TokenOff) != n+1 || len(p.RelOff) != n+1 || len(p.AttrOff) != n+1 {
		return nil, fmt.Errorf("kb: assemble: offset tables disagree with %d entities", n)
	}
	nAttr, nRel := len(p.AttrName), len(p.RelPred)
	if len(p.AttrVal) != nAttr || len(p.StmtAttrName) != nAttr || p.StmtVals.Len() != nAttr {
		return nil, fmt.Errorf("kb: assemble: attribute columns disagree (%d statements)", nAttr)
	}
	if len(p.RelObj) != nRel || len(p.StmtRelPred) != nRel || len(p.StmtRelObj) != nRel {
		return nil, fmt.Errorf("kb: assemble: relation columns disagree (%d statements)", nRel)
	}
	if err := checkOffsets32(p.RelOff, nRel, "relations"); err != nil {
		return nil, err
	}
	if err := checkOffsets32(p.AttrOff, nAttr, "attributes"); err != nil {
		return nil, err
	}
	if p.TokenOff[0] != 0 || p.TokenOff[n] != int64(len(p.Tokens)) {
		return nil, fmt.Errorf("kb: assemble: token offsets do not cover %d tokens", len(p.Tokens))
	}
	for i := 0; i < n; i++ {
		if p.TokenOff[i] > p.TokenOff[i+1] {
			return nil, fmt.Errorf("kb: assemble: token offsets decrease at %d", i)
		}
	}
	// Every ID a description or a pipeline stage later follows into a
	// dictionary or back into the KB must land inside it.
	sch := p.Schema
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{IDsBelow(p.Tokens, p.Dict.Len()), "token"},
		{IDsBelow(p.RelPred, sch.Preds()) && IDsBelow(p.StmtRelPred, sch.Preds()), "predicate"},
		{IDsBelow(p.AttrName, sch.Attrs()) && IDsBelow(p.StmtAttrName, sch.Attrs()), "attribute"},
		{IDsBelow(p.AttrVal, sch.Values()), "value"},
		{IDsBelow(p.RelObj, n) && IDsBelow(p.StmtRelObj, n), "relation object"},
	} {
		if !c.ok {
			return nil, fmt.Errorf("kb: assemble: %s ID out of range", c.what)
		}
	}

	// Descriptions are NOT materialized here: every other column installs as
	// a view, and the query path answers from the columnar substrate and the
	// frozen URI table alone, so the per-entity Description array — the
	// dominant cost of opening a snapshot — is deferred until something
	// actually asks for a *Description (see KB.ents).
	uris := frozenSymtab(p.URIs)
	return &KB{
		name:   p.Name,
		size:   n,
		dict:   p.Dict,
		schema: p.Schema,
		cols: columns{
			relOff: p.RelOff, relPred: p.RelPred, relObj: p.RelObj,
			attrOff: p.AttrOff, attrName: p.AttrName, attrVal: p.AttrVal,
		},
		triples: p.Triples,
		uris:    &uris,
		lazy:    &lazyDescriptions{parts: p},
	}, nil
}

// lazyDescriptions holds the validated snapshot decomposition of a loaded KB
// until its Description array is first needed.
type lazyDescriptions struct {
	once  sync.Once
	parts SnapshotParts
}

// ents returns the KB's Description array, materializing it on first use for
// snapshot-loaded KBs. Builder-built KBs return their array directly.
func (k *KB) ents() []Description {
	if k.lazy != nil {
		k.lazy.once.Do(k.materialize)
	}
	return k.entities
}

// materialize builds the Description array from the snapshot decomposition.
// The three fills are disjoint writes over immutable inputs (the entities
// fill only takes subslice headers of the flat arrays, never reading their
// elements), so all three run concurrently, chunked across cores; the result
// is identical to the sequential fill. AssembleKB already validated shapes.
func (k *KB) materialize() {
	p := &k.lazy.parts
	n := k.size
	nAttr, nRel := len(p.AttrName), len(p.RelPred)
	entities := make([]Description, n)
	flatAttrs := make([]AttributeValue, nAttr)
	flatRels := make([]Relation, nRel)
	var wg sync.WaitGroup
	fillChunks(&wg, nAttr, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flatAttrs[j] = AttributeValue{
				Attribute: p.Schema.Attr(p.StmtAttrName[j]),
				Value:     p.StmtVals.At(j),
			}
		}
	})
	fillChunks(&wg, nRel, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flatRels[j] = Relation{
				Predicate: p.Schema.Pred(p.StmtRelPred[j]),
				Object:    p.StmtRelObj[j],
			}
		}
	})
	fillChunks(&wg, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			entities[i] = Description{
				URI:       p.URIs.At(i),
				Attrs:     flatAttrs[p.AttrOff[i]:p.AttrOff[i+1]:p.AttrOff[i+1]],
				Relations: flatRels[p.RelOff[i]:p.RelOff[i+1]:p.RelOff[i+1]],
				tokens:    p.Tokens[p.TokenOff[i]:p.TokenOff[i+1]:p.TokenOff[i+1]],
				dict:      p.Dict,
			}
		}
	})
	wg.Wait()
	k.entities = entities
}

// fillChunks spawns goroutines covering [0, n) in contiguous chunks, each
// writing a disjoint index range. Small inputs stay on one goroutine.
func fillChunks(wg *sync.WaitGroup, n int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	step := (n + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	if step < 1<<13 {
		step = n // not worth a goroutine per chunk
	}
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
}

// IDsBelow reports whether every ID lies in [0, n) — the range check for
// columns that came from a file and will be used as indices.
func IDsBelow[T ~int32 | ~uint32](ids []T, n int) bool {
	for _, id := range ids {
		if id < 0 || int64(id) >= int64(n) {
			return false
		}
	}
	return true
}

// checkOffsets32 validates a CSR offset table: first 0, non-decreasing, last
// equal to the flat length.
func checkOffsets32(off []int32, flatLen int, what string) error {
	if off[0] != 0 || off[len(off)-1] != int32(flatLen) {
		return fmt.Errorf("kb: assemble: %s offsets do not cover %d rows", what, flatLen)
	}
	for i := 0; i+1 < len(off); i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("kb: assemble: %s offsets decrease at %d", what, i)
		}
	}
	return nil
}
