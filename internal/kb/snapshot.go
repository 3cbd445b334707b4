// KB decomposition for snapshot serialization: SnapshotParts is the flat,
// columnar view of everything a KB holds — dictionaries, the URI table,
// per-entity token CSR, the sorted relation/attribute columns, and the
// insertion-order statement tables behind Description.Attrs/Relations — and
// AssembleKB is its inverse. The statement tables reuse the columnar
// offsets: Build lays out exactly one columnar row per insertion-order
// statement, so per-entity counts (and therefore CSR spans) coincide.
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

// SnapshotParts decomposes the KB for serialization: the parts the KB
// holds, built or assembled alike, and its frozen URI table. The slices
// alias the KB. A KB from a file must pass Verify first.
func (k *KB) SnapshotParts() SnapshotParts {
	return SnapshotParts{
		Name:         k.name,
		Triples:      k.triples,
		Dict:         k.dict,
		Schema:       k.schema,
		URIs:         k.uris.freeze(),
		TokenOff:     k.tokOff,
		Tokens:       k.tokens,
		RelOff:       k.cols.relOff,
		RelPred:      k.cols.relPred,
		RelObj:       k.cols.relObj,
		AttrOff:      k.cols.attrOff,
		AttrName:     k.cols.attrName,
		AttrVal:      k.cols.attrVal,
		StmtAttrName: k.stmts.attrName,
		StmtVals:     k.stmts.vals,
		StmtRelPred:  k.stmts.relPred,
		StmtRelObj:   k.stmts.relObj,
	}
}

// AssembleKB rebuilds an immutable KB from its flat decomposition. The KB
// aliases the parts' arrays (read-only); descriptions are materialized on
// demand, as for a built KB, with attribute/predicate strings aliasing the
// frozen schema tables and literal values the frozen value blob. Only shapes are checked here:
// column lengths and offset tables. That every ID lands inside the
// dictionary or KB it points into is the KB's deferred check, run by the
// first whole read (Verify); Describe checks the rows of the one entity it
// reads.
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
	uris := frozenSymtab(p.URIs)
	k := &KB{
		name:    p.Name,
		size:    n,
		triples: p.Triples,
		uris:    &uris,
		dict:    p.Dict,
		schema:  p.Schema,
		cols: columns{
			relOff: p.RelOff, relPred: p.RelPred, relObj: p.RelObj,
			attrOff: p.AttrOff, attrName: p.AttrName, attrVal: p.AttrVal,
		},
		tokOff: p.TokenOff,
		tokens: p.Tokens,
		stmts:  statements{attrName: p.StmtAttrName, vals: p.StmtVals, relPred: p.StmtRelPred, relObj: p.StmtRelObj},
	}
	k.check = NewDeferred("kb "+p.Name+" columns", func() error { return checkIDs(&p) })
	return k, nil
}

// checkIDs is a KB's deferred check: every ID a description or a pipeline
// stage later follows into a dictionary or back into the KB must land
// inside it.
func checkIDs(p *SnapshotParts) error {
	sch, n := p.Schema, p.URIs.Len()
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
			return fmt.Errorf("%s ID out of range", c.what)
		}
	}
	return nil
}

// checks lists the deferred checks of everything the KB reads: its ID
// columns and its string tables. A built KB has none (all nil).
func (k *KB) checks() [7]*Deferred {
	return [7]*Deferred{k.check, k.uris.tab.check, k.dict.t.tab.check,
		k.schema.preds.tab.check, k.schema.attrs.tab.check, k.schema.vals.tab.check, k.stmts.vals.check}
}

// Verify runs every deferred check of the KB — its ID columns and string
// tables — and returns the first failure (ErrCorrupt). Each check runs once;
// the verdict sticks. A built KB has nothing to verify.
func (k *KB) Verify() error {
	for _, c := range k.checks() {
		if err := c.Run(); err != nil {
			return err
		}
	}
	return nil
}

// CheckURIs runs the deferred check of the entity URI table alone: one pass
// over its offsets, after which every URI reads without a further check. A
// batch resolution runs it on both KBs, so the URIs of the matches it hands
// out print as they are. A built KB has nothing to check.
func (k *KB) CheckURIs() error { return k.uris.tab.check.Run() }

// Err reports damage the KB's readers have found so far, without running a
// check: the first failed verdict of a check that has run, or nil. Readers
// without an error result (At-style accessors, Lookup) degrade to an empty
// answer on damage; callers that can report an error consult Err.
func (k *KB) Err() error {
	for _, c := range k.checks() {
		if err := c.Known(); err != nil {
			return err
		}
	}
	return nil
}

// Describe returns entity id's description without building any other: it
// reads only the entity's own rows and, on a KB assembled from parts, checks
// them first and fails with ErrCorrupt if they are damaged. Its Attrs and
// Relations are the caller's. It panics if the ID is out of range, like
// Entity.
func (k *KB) Describe(id EntityID) (Description, error) {
	if err := k.Err(); err != nil {
		return Description{}, err
	}
	aLo, aHi := k.cols.attrOff[id], k.cols.attrOff[id+1]
	rLo, rHi := k.cols.relOff[id], k.cols.relOff[id+1]
	tLo, tHi := k.tokOff[id], k.tokOff[id+1]
	if !IDsBelow(k.tokens[tLo:tHi], k.dict.Len()) || !IDsBelow(k.stmts.attrName[aLo:aHi], k.schema.Attrs()) ||
		!IDsBelow(k.stmts.relPred[rLo:rHi], k.schema.Preds()) || !IDsBelow(k.stmts.relObj[rLo:rHi], k.size) {
		if err := k.check.Run(); err != nil {
			return Description{}, err
		}
	}
	d := Description{
		URI:       k.URI(id),
		Attrs:     make([]AttributeValue, 0, aHi-aLo),
		Relations: make([]Relation, 0, rHi-rLo),
		tokens:    k.tokens[tLo:tHi:tHi],
		dict:      k.dict,
	}
	for j := aLo; j < aHi; j++ {
		d.Attrs = append(d.Attrs, k.attributeValue(int(j)))
	}
	for j := rLo; j < rHi; j++ {
		d.Relations = append(d.Relations, k.relation(int(j)))
	}
	// A damaged string the reads above touched has failed its table's check.
	if err := k.Err(); err != nil {
		return Description{}, err
	}
	return d, nil
}

// attributeValue and relation read statement j of the statement tables.
func (k *KB) attributeValue(j int) AttributeValue {
	return AttributeValue{Attribute: k.schema.Attr(k.stmts.attrName[j]), Value: k.stmts.vals.At(j)}
}

func (k *KB) relation(j int) Relation {
	return Relation{Predicate: k.schema.Pred(k.stmts.relPred[j]), Object: k.stmts.relObj[j]}
}

// lazyDescriptions is a KB's Description array, made on first use.
type lazyDescriptions struct {
	once     sync.Once
	entities []Description
}

// ents returns the KB's Description array, materializing it on first use. A
// KB that fails Verify gets an array of empty descriptions instead: whole
// reads of a KB from a file verify it first and report the error.
func (k *KB) ents() []Description {
	k.lazy.once.Do(k.materialize)
	return k.lazy.entities
}

// materialize builds the Description array from the statement tables. The
// three fills are disjoint writes over immutable inputs (the entities fill
// only takes subslice headers of the flat arrays, never reading their
// elements), so all three run concurrently, chunked across cores; the result
// is identical to the sequential fill. The KB's shapes were checked when it
// was built or assembled, Verify checks the IDs.
func (k *KB) materialize() {
	n := k.size
	if k.Verify() != nil {
		k.lazy.entities = make([]Description, n)
		return
	}
	nAttr, nRel := len(k.stmts.attrName), len(k.stmts.relPred)
	entities := make([]Description, n)
	flatAttrs := make([]AttributeValue, nAttr)
	flatRels := make([]Relation, nRel)
	var wg sync.WaitGroup
	fillChunks(&wg, nAttr, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flatAttrs[j] = k.attributeValue(j)
		}
	})
	fillChunks(&wg, nRel, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flatRels[j] = k.relation(j)
		}
	})
	aOff, rOff, tOff := k.cols.attrOff, k.cols.relOff, k.tokOff
	fillChunks(&wg, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			entities[i] = Description{
				URI:       k.URI(EntityID(i)),
				Attrs:     flatAttrs[aOff[i]:aOff[i+1]:aOff[i+1]],
				Relations: flatRels[rOff[i]:rOff[i+1]:rOff[i+1]],
				tokens:    k.tokens[tOff[i]:tOff[i+1]:tOff[i+1]],
				dict:      k.dict,
			}
		}
	})
	wg.Wait()
	k.lazy.entities = entities
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
