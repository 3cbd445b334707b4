// Package kb implements the entity-description substrate of MinoanER
// (Efthymiou et al., EDBT 2019, §2): URI-identified sets of attribute-value
// pairs whose values are either literals or references to other entities of
// the same knowledge base, forming an entity graph.
//
// A KB is immutable once built. Construction goes through a Builder (see
// ingest.go), which resolves object URIs into relations (edges to described
// entities) and keeps unresolved URIs as plain literal values, exactly as the
// paper defines relations(e) and neighbors(e): only objects that are
// themselves described in the KB count as neighbors.
package kb

import (
	"fmt"
	"slices"
	"strings"
)

// EntityID indexes a description inside one KB. IDs are dense, starting at 0,
// assigned in insertion order.
type EntityID int32

// NoEntity is the sentinel returned by lookups that find nothing.
const NoEntity EntityID = -1

// AttributeValue is one literal-valued attribute of a description.
type AttributeValue struct {
	Attribute string
	Value     string
}

// Relation is one entity-valued attribute: a named edge to another entity of
// the same KB.
type Relation struct {
	Predicate string
	Object    EntityID
}

// Description is a single entity description: a URI plus its literal
// attributes and its relations. Token sets are precomputed at build time
// because every MinoanER stage (EF statistics, token blocking, valueSim)
// consumes the same schema-agnostic bag of tokens; they are stored once as
// dense TokenIDs into the KB's Interner, so the hot stages never re-hash
// token strings.
type Description struct {
	URI       string
	Attrs     []AttributeValue
	Relations []Relation

	// tokens is the set of distinct tokens appearing in any literal value of
	// this description, ordered by token STRING (not by numeric ID) — the
	// iteration order every accumulation stage relies on for bit-identical
	// floating-point sums.
	tokens []TokenID
	// dict is the interner the token IDs refer to (shared with the KB).
	dict *Interner
}

// TokenIDs returns the description's distinct tokens as dense IDs into
// Dict(), ordered by token string. The slice is shared; callers must not
// modify it.
func (d *Description) TokenIDs() []TokenID { return d.tokens }

// Dict returns the token dictionary the description's TokenIDs refer to.
func (d *Description) Dict() *Interner { return d.dict }

// Tokens returns the distinct tokens of the description in sorted order.
// It is a compatibility view over TokenIDs: the slice is materialized on
// every call, so hot paths should walk TokenIDs instead.
func (d *Description) Tokens() []string {
	if len(d.tokens) == 0 {
		return nil
	}
	out := make([]string, len(d.tokens))
	for i, id := range d.tokens {
		out[i] = d.dict.TokenString(id)
	}
	return out
}

// HasToken reports whether t is one of the description's tokens.
func (d *Description) HasToken(t string) bool {
	_, found := slices.BinarySearchFunc(d.tokens, t, func(id TokenID, s string) int {
		return strings.Compare(d.dict.TokenString(id), s)
	})
	return found
}

// Values returns the literal values of attribute attr, in insertion order.
func (d *Description) Values(attr string) []string {
	var vs []string
	for _, av := range d.Attrs {
		if av.Attribute == attr {
			vs = append(vs, av.Value)
		}
	}
	return vs
}

// KB is an immutable knowledge base: a set of entity descriptions indexed by
// dense EntityIDs. A built KB and one assembled from a snapshot hold the same
// parts (see SnapshotParts): the columns every stage reads, and the
// insertion-order statement tables its descriptions are made from on demand.
type KB struct {
	name    string
	size    int
	triples int
	// uris holds the entity URIs in EntityID order: the Builder's table of a
	// built KB (looked up through its index), the frozen table of a
	// snapshot-loaded one (looked up by binary search).
	uris   *symtab
	dict   *Interner
	schema *Schema
	cols   columns
	// tokOff and tokens are the token CSR: entity i's distinct tokens,
	// ordered by token string, are tokens[tokOff[i]:tokOff[i+1]].
	tokOff []int64
	tokens []TokenID
	stmts  statements
	// lazy holds the Description array once something asks for one (see
	// ents): nothing in the pipeline does.
	lazy lazyDescriptions
	// check is the deferred range check of a KB assembled from parts: the
	// IDs in its columns (see Verify). Nil for a built KB.
	check *Deferred
}

// statements are each entity's statements in input order, over the
// columns' spans (attrOff, relOff): the tables a snapshot stores and a
// Description is made from. vals holds the raw literal text, not the
// normalized value.
type statements struct {
	attrName []AttrID
	vals     *FrozenStrings
	relPred  []PredID
	relObj   []EntityID
}

// Name returns the KB's display name.
func (k *KB) Name() string { return k.name }

// TokenDict returns the token dictionary all of the KB's descriptions are
// interned into. Two KBs built with NewBuilderWithInterner and the same
// Interner return the same dictionary, which lets the blocking TokenIndex
// skip its token-space translation.
func (k *KB) TokenDict() *Interner { return k.dict }

// Len returns the number of entity descriptions.
func (k *KB) Len() int { return k.size }

// Triples returns the total number of attribute-value pairs plus relations,
// i.e. the triple count reported in Table 1 of the paper.
func (k *KB) Triples() int { return k.triples }

// Entity returns the description with the given ID. It panics if the ID is
// out of range, mirroring slice indexing semantics. Descriptions are lazy on
// every KB, built or loaded: the first call verifies the KB and makes all of
// them from its statement tables. Entity has no error result: callers run
// Verify first, since a KB that fails it yields empty descriptions. Callers
// that only need the URI should use URI, the tokens TokenIDs, and one
// description Describe, which reports damage.
func (k *KB) Entity(id EntityID) *Description { return &k.ents()[id] }

// URI returns the URI of entity id without materializing descriptions,
// keeping the query path's candidate formatting free of the lazy
// Description build. On a KB from a file a damaged URI reads as
// "" and Err reports it afterwards; CheckURIs checks every URI at once.
func (k *KB) URI(id EntityID) string { return k.uris.str(uint32(id)) }

// Lookup finds an entity by URI, returning NoEntity if absent. It takes no
// lock: a KB's URI table is never written once the KB is built.
func (k *KB) Lookup(uri string) EntityID {
	if id, ok := k.uris.find(bytesOf(uri)); ok {
		return EntityID(id)
	}
	return NoEntity
}

// Relations returns the distinct relation predicates of entity id (paper:
// relations(e_i)), derived from the sorted columnar span — distinct IDs are
// adjacent, so no per-call dedup map is needed. Order is dense predicate-ID
// order, i.e. first global appearance during the KB build.
func (k *KB) Relations(id EntityID) []string {
	preds, _ := k.RelationColumns(id)
	var out []string
	for j, p := range preds {
		if j > 0 && p == preds[j-1] {
			continue
		}
		out = append(out, k.schema.Pred(p))
	}
	return out
}

// Neighbors returns the distinct neighbor entities of id (paper:
// neighbors(e_i)), sorted by entity ID, derived from the columnar span with
// one sort+compact instead of a per-call dedup map.
func (k *KB) Neighbors(id EntityID) []EntityID {
	_, objs := k.RelationColumns(id)
	if len(objs) == 0 {
		return nil
	}
	out := slices.Clone(objs)
	slices.Sort(out)
	return slices.Compact(out)
}

// AverageTokens returns the mean number of distinct tokens per description
// (Table 1's "av. tokens" row).
func (k *KB) AverageTokens() float64 {
	if k.size == 0 {
		return 0
	}
	return float64(len(k.tokens)) / float64(k.size)
}

// Attributes returns the number of distinct literal attribute names in the
// KB. (The schema dictionary may be shared with another KB, so the count is
// taken over this KB's own columns, not the dictionary size.) On a KB from
// a file callers run Verify first: one that fails it reports 0.
func (k *KB) Attributes() int {
	if k.check.Run() != nil {
		return 0
	}
	seen := make([]bool, k.schema.Attrs())
	n := 0
	for _, a := range k.cols.attrName {
		if !seen[a] {
			seen[a] = true
			n++
		}
	}
	return n
}

// RelationNames returns the number of distinct relation predicates in the
// KB. On a KB from a file callers run Verify first: one that fails it
// reports 0.
func (k *KB) RelationNames() int {
	if k.check.Run() != nil {
		return 0
	}
	seen := make([]bool, k.schema.Preds())
	n := 0
	for _, p := range k.cols.relPred {
		if !seen[p] {
			seen[p] = true
			n++
		}
	}
	return n
}

// String implements fmt.Stringer with a compact summary.
func (k *KB) String() string {
	return fmt.Sprintf("KB(%s: %d entities, %d triples)", k.name, k.size, k.triples)
}
