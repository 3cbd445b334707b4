package kb

// columns is the KB's columnar schema-axis substrate, laid out by
// Builder.Build: every entity's relations and attribute-value statements stored as
// flat, per-entity-span CSR arrays of dense schema IDs. Spans are ID-sorted
// — relations by (PredID, Object), attribute statements by (AttrID,
// ValueID) — so distinct-counting inside a span is an adjacency check and
// per-predicate/per-attribute grouping is a linear walk, no maps.
//
// The KB's statement tables keep the same statements in insertion order,
// behind Description.Relations and Description.Attrs; the pipeline reads only
// these columns and the token CSR (TokenIDs).
type columns struct {
	// relOff[i] .. relOff[i+1] is entity i's span in relPred/relObj.
	relOff  []int32
	relPred []PredID
	relObj  []EntityID
	// attrOff[i] .. attrOff[i+1] is entity i's span in attrName/attrVal:
	// one row per attribute-value STATEMENT (duplicates included, since
	// instance counts are per statement), with the value stored as the
	// interned NormalizeName form.
	attrOff  []int32
	attrName []AttrID
	attrVal  []ValueID
}

// Schema returns the KB's schema dictionaries (predicates, attribute names,
// normalized values). KBs built with NewBuilderWithDicts and one shared
// Schema return the same dictionary set.
func (k *KB) Schema() *Schema { return k.schema }

// TokenIDs returns entity id's distinct tokens as dense IDs into TokenDict(),
// ordered by token string: its span of the KB's token CSR, which every
// whole-KB walker reads without a Description. The slice aliases the KB;
// callers must not modify it. On a KB from a file callers run Verify first.
func (k *KB) TokenIDs(id EntityID) []TokenID {
	lo, hi := k.tokOff[id], k.tokOff[id+1]
	return k.tokens[lo:hi:hi]
}

// RelationColumns returns entity id's relations in columnar form: parallel
// slices of predicate IDs and objects, sorted by (PredID, Object). The
// slices alias the KB's flat arrays; callers must not modify them.
func (k *KB) RelationColumns(id EntityID) ([]PredID, []EntityID) {
	lo, hi := k.cols.relOff[id], k.cols.relOff[id+1]
	return k.cols.relPred[lo:hi], k.cols.relObj[lo:hi]
}

// AttributeColumns returns entity id's attribute-value statements in
// columnar form: parallel slices of attribute IDs and normalized-value IDs
// (one row per statement, duplicates included), sorted by (AttrID, ValueID).
// The slices alias the KB's flat arrays; callers must not modify them.
func (k *KB) AttributeColumns(id EntityID) ([]AttrID, []ValueID) {
	lo, hi := k.cols.attrOff[id], k.cols.attrOff[id+1]
	return k.cols.attrName[lo:hi], k.cols.attrVal[lo:hi]
}

// Rels returns the total number of relation statements in the KB (the size
// of the relation columns).
func (k *KB) Rels() int { return len(k.cols.relPred) }

// AttrStatements returns the total number of attribute-value statements in
// the KB (the size of the attribute columns).
func (k *KB) AttrStatements() int { return len(k.cols.attrName) }
