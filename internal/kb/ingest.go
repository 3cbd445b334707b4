package kb

import (
	"cmp"
	"slices"
	"strings"

	"minoaner/internal/parallel"
)

// Builder is the one construction path of a KB — the ingester behind every
// loader and behind hand-built KBs alike. Each statement registers its
// subject, interns the literal's tokens into the token dictionary and its
// normalized value (NormalizeName) into the schema's value dictionary, and
// becomes one pointer-free record. Every dictionary is written in statement
// order, so IDs — and the bytes of a snapshot — are a function of the input
// alone. The loaders parse a file in chunks, in parallel, and merge the
// chunks into the Builder in input order (see ingest): a merged chunk's
// records, token IDs and literal text become one of the Builder's segments
// as they are. Hand-built statements append to an open segment of the same
// shape, whose literals get their ValueIDs a batch at a time (see closeOpen).
//
// Build then counting-sorts the statements by subject into the parts a KB
// holds: the token CSR, the six sorted columns, and the insertion-order
// statement tables with the raw literal text. Object values that name a
// described entity become relations; all other values are literal
// attributes, exactly as the paper defines relations(e) and neighbors(e). An
// object URI that is only described later in the input, or never, is
// settled at Build in place, so a description's statements keep their input
// order.
//
// Subject URIs are interned into a table of the Builder's own, which the KB
// keeps: EntityID i is string i, and an object URI is looked up in it.
type Builder struct {
	name   string
	dict   *Interner
	schema *Schema

	uris *symtab

	// preds are the distinct predicates in first-seen order. Whether one is
	// an attribute name, a relation predicate or both is only known at
	// Build, which is when they enter the schema dictionaries.
	preds symtab

	// segs are the statements so far, in input order.
	segs []segment
	// open is the segment hand-built statements append to; openBytes is
	// the literal text it holds.
	open      segment
	openBytes int
	low, norm []byte // lower-casing and normalizing scratch
}

// segment is a run of statements in input order and the arrays their
// records index: a merged chunk's, or a batch of hand-built statements.
type segment struct {
	stmts []stmt
	toks  []TokenID // the token IDs of the literals, in statement order
	text  []byte    // the literals' text and the pending object URIs, end to end
}

// stmt is one statement record. A chunk's parser fills it over the chunk's
// own IDs, and the merger rewrites it in place over the Builder's; a
// hand-built statement is appended in the Builder's form.
type stmt struct {
	subj   EntityID
	pred   uint32   // index into Builder.preds
	obj    EntityID // the relation target, or one of the markers below
	val    ValueID  // literals: the normalized value
	lo, hi uint32   // the literal's text, or the pending URI, in the segment's text
	ntok   uint32   // literals: how many of the segment's toks are this statement's
}

const (
	objLiteral EntityID = -1 - iota // a literal value
	objURI                          // a chunk's object URI, in its objs, until the merge looks it up
	objPending                      // a URI that named no entity on arrival
	objDemoted                      // a pending URI that Build found undescribed: a literal after all
)

// NewBuilder returns a Builder for a KB with the given display name and
// private dictionaries.
func NewBuilder(name string) *Builder { return NewBuilderWithDicts(name, nil, nil) }

// NewBuilderWithInterner returns a Builder whose KB interns tokens into the
// given shared dictionary (and into a private schema dictionary).
func NewBuilderWithInterner(name string, dict *Interner) *Builder {
	return NewBuilderWithDicts(name, dict, nil)
}

// NewBuilderWithDicts returns a Builder interning tokens into dict and
// predicates/attribute names/normalized values into schema — the full
// shared-dictionary pairing: build both KBs of an ER pair over one Interner
// AND one Schema and every pipeline stage, token axis and schema axis alike,
// runs on a single dense ID space (LoadPair does this for two files). A nil
// dict or schema gets a fresh private dictionary.
func NewBuilderWithDicts(name string, dict *Interner, schema *Schema) *Builder {
	if dict == nil {
		dict = NewInterner()
	}
	if schema == nil {
		schema = NewSchema()
	}
	uris := newSymtab()
	return &Builder{
		name:   name,
		dict:   dict,
		schema: schema,
		uris:   &uris,
		preds:  newSymtab(),
	}
}

// AddEntity registers (or finds) the entity with the given URI and returns
// its ID. Adding the same URI twice returns the same ID.
func (b *Builder) AddEntity(uri string) EntityID {
	return EntityID(b.uris.internBytes(bytesOf(uri)))
}

// AddLiteral attaches a literal attribute-value pair to the entity.
func (b *Builder) AddLiteral(id EntityID, attribute, value string) {
	s := &b.open
	st := stmt{subj: id, pred: b.pred(attribute), obj: objLiteral, ntok: b.tokenize(&s.toks, bytesOf(value))}
	st.lo, st.hi = s.addText(bytesOf(value))
	s.stmts = appendDoubling(s.stmts, st)
	if b.openBytes += len(value); b.openBytes >= valueBatchBytes {
		b.closeOpen()
	}
}

// AddObject attaches an object (URI-position) value. It becomes a relation
// if the URI names a described entity — now or by the time of Build —
// otherwise a literal.
func (b *Builder) AddObject(id EntityID, predicate, objectURI string) {
	s := &b.open
	st := stmt{subj: id, pred: b.pred(predicate), obj: objPending}
	if obj, ok := b.uris.find(bytesOf(objectURI)); ok {
		st.obj = EntityID(obj)
	} else {
		st.lo, st.hi = s.addText(bytesOf(objectURI))
	}
	s.stmts = appendDoubling(s.stmts, st)
}

func (b *Builder) pred(name string) uint32 { return b.preds.internBytes(bytesOf(name)) }

// addText appends t to the segment's text and returns its span.
func (s *segment) addText(t []byte) (lo, hi uint32) {
	lo = uint32(len(s.text))
	s.text = append(s.text, t...)
	return lo, uint32(len(s.text))
}

// tokenize appends the token IDs of one value to *dst, interning tokens not
// seen before, and returns how many there were.
func (b *Builder) tokenize(dst *[]TokenID, value []byte) uint32 {
	n := len(*dst)
	low := lowerBytes(&b.low, value)
	t := &b.dict.t
	t.mu.Lock()
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			break
		}
		*dst = appendDoubling(*dst, TokenID(t.internBytes(low[start:end])))
		i = end
	}
	t.mu.Unlock()
	return uint32(len(*dst) - n)
}

// valueID interns the normalized form of a value. The caller holds the
// value dictionary's lock.
func (b *Builder) valueID(value []byte) ValueID {
	b.norm = appendNormalized(b.norm[:0], lowerBytes(&b.low, value))
	return ValueID(b.schema.vals.internBytes(b.norm))
}

// valueBatchBytes is how much literal text the open segment takes before it
// closes. Builders that share a Schema and are fed in turn, as datagen feeds
// a pair, get ValueIDs that depend on where those batches end, and a
// snapshot stores them.
const valueBatchBytes = 256 << 10

// closeOpen gives the open segment's literals their ValueIDs, in statement
// order, and appends it to the closed ones.
func (b *Builder) closeOpen() {
	s := &b.open
	if len(s.stmts) == 0 {
		return
	}
	vals := &b.schema.vals
	vals.mu.Lock()
	for i := range s.stmts {
		if st := &s.stmts[i]; st.obj == objLiteral {
			st.val = b.valueID(s.text[st.lo:st.hi])
		}
	}
	vals.mu.Unlock()
	b.segs = append(b.segs, *s)
	b.open, b.openBytes = segment{}, 0
}

// appendDoubling is append for the ingester's flat arrays, which reach
// millions of elements one at a time: doubling copies each element once on
// average where append's 1.25× growth copies it four times.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 1<<10))
	}
	return append(s, v)
}

// Len returns the number of entities registered so far.
func (b *Builder) Len() int { return b.uris.tab.Len() }

// Build finalizes the KB and returns it. The Builder must not be used
// afterwards.
func (b *Builder) Build() *KB {
	b.closeOpen()
	n := b.uris.tab.Len()

	// Pass 1, in statement order: settle every object URI that named no
	// entity when it arrived — a forward reference is the relation it looks
	// like, a URI nobody describes is a literal — and count each entity's
	// statements, token occurrences and bytes of literal text. Demoted URIs
	// are tokenized and normalized here, so their tokens and ValueIDs follow
	// those of the literals that arrived as such; dtoks holds their tokens,
	// in statement order.
	var dtoks []TokenID
	attrOff := make([]int32, n+1)
	relOff := make([]int32, n+1)
	tokOff := make([]int64, n+1)
	textOff := make([]int64, n+1)
	triples := 0
	vals := &b.schema.vals
	for si := range b.segs {
		seg := &b.segs[si]
		triples += len(seg.stmts)
		for i := range seg.stmts {
			st := &seg.stmts[i]
			if st.obj == objPending {
				text := seg.text[st.lo:st.hi]
				if obj, ok := b.uris.find(text); ok {
					st.obj = EntityID(obj)
				} else {
					st.obj, st.ntok = objDemoted, b.tokenize(&dtoks, text)
					vals.mu.Lock()
					st.val = b.valueID(text)
					vals.mu.Unlock()
				}
			}
			if st.obj >= 0 {
				relOff[st.subj+1]++
			} else {
				attrOff[st.subj+1]++
				tokOff[st.subj+1] += int64(st.ntok)
				textOff[st.subj+1] += int64(st.hi - st.lo)
			}
		}
	}
	for i := 0; i < n; i++ {
		attrOff[i+1] += attrOff[i]
		relOff[i+1] += relOff[i]
		tokOff[i+1] += tokOff[i]
		textOff[i+1] += textOff[i]
	}

	// Pass 2, in statement order again: a stable scatter by subject into the
	// insertion-order statement tables, whose two predicate columns hold
	// Builder-local IDs until pass 3, and into the entities' token spans.
	nAttr, nRel := int(attrOff[n]), int(relOff[n])
	st := statements{
		attrName: make([]AttrID, nAttr),
		relPred:  make([]PredID, nRel),
		relObj:   make([]EntityID, nRel),
	}
	attrVal := make([]ValueID, nAttr)
	valOff := make([]int64, nAttr+1)
	blob := make([]byte, textOff[n])
	gathered := make([]TokenID, tokOff[n])
	attrAt, relAt := slices.Clone(attrOff[:n]), slices.Clone(relOff[:n])
	tokAt, textAt := slices.Clone(tokOff[:n]), textOff[:n] // textOff is not read again
	dtok := 0
	for si := range b.segs {
		seg := &b.segs[si]
		tok := 0
		for i := range seg.stmts {
			s := &seg.stmts[i]
			if s.obj >= 0 {
				j := relAt[s.subj]
				relAt[s.subj]++
				st.relPred[j], st.relObj[j] = PredID(s.pred), s.obj
				continue
			}
			j := attrAt[s.subj]
			attrAt[s.subj]++
			st.attrName[j], attrVal[j] = AttrID(s.pred), s.val
			valOff[j] = textAt[s.subj]
			textAt[s.subj] += int64(copy(blob[textAt[s.subj]:], seg.text[s.lo:s.hi]))
			from, at := seg.toks, &tok
			if s.obj == objDemoted {
				from, at = dtoks, &dtok
			}
			tokAt[s.subj] += int64(copy(gathered[tokAt[s.subj]:], from[*at:*at+int(s.ntok)]))
			*at += int(s.ntok)
		}
	}
	valOff[nAttr] = int64(len(blob))
	st.vals = &FrozenStrings{blob: blob, off: valOff}
	b.segs = nil

	// Pass 3: predicates enter the schema dictionaries in the order the
	// finished KB lists them — by entity, then by statement. The sorted
	// columns start as copies of the statement tables.
	internColumn(st.relPred, &b.preds, b.schema.InternPred)
	internColumn(st.attrName, &b.preds, b.schema.InternAttr)
	c := columns{
		relOff: relOff, relPred: slices.Clone(st.relPred), relObj: slices.Clone(st.relObj),
		attrOff: attrOff, attrName: slices.Clone(st.attrName), attrVal: attrVal,
	}

	// Pass 4, over entity spans in parallel: sort each entity's two column
	// spans by (schema ID, payload) and its tokens by token string, dropping
	// duplicates. tokLen[i] is what is left of entity i's tokens.
	strs := b.dict.t.view()
	keys := tokenKeys(&strs)
	tokLen := make([]int32, n)
	parallel.New(0).ForSpans(n, func(s parallel.Span) {
		var packed []uint64
		var byString []tokenKey
		for i := s.Lo; i < s.Hi; i++ {
			packed = sortColumns(packed, c.relPred[relOff[i]:relOff[i+1]], c.relObj[relOff[i]:relOff[i+1]])
			packed = sortColumns(packed, c.attrName[attrOff[i]:attrOff[i+1]], c.attrVal[attrOff[i]:attrOff[i+1]])
			byString, tokLen[i] = sortTokens(byString, gathered[tokOff[i]:tokOff[i+1]], keys, &strs)
		}
	})

	// The token CSR: each entity's distinct tokens move down over the
	// duplicates dropped before them, and tokOff becomes the CSR's offsets.
	w := int64(0)
	for i := 0; i < n; i++ {
		lo := tokOff[i]
		copy(gathered[w:], gathered[lo:lo+int64(tokLen[i])])
		tokOff[i] = w
		w += int64(tokLen[i])
	}
	tokOff[n] = w
	k := &KB{
		name: b.name, size: n, triples: triples, uris: b.uris, dict: b.dict, schema: b.schema,
		cols: c, tokOff: tokOff, tokens: gathered[:w:w], stmts: st,
	}
	b.uris = nil
	return k
}

// internColumn replaces the Builder-local predicate IDs of col, in place, by
// the IDs intern assigns — called in column order, once per distinct name.
func internColumn[ID ~uint32](col []ID, names *symtab, intern func(string) ID) {
	ids := make([]ID, names.tab.Len())
	seen := make([]bool, len(ids))
	for j, local := range col {
		if !seen[local] {
			seen[local], ids[local] = true, intern(names.str(uint32(local)))
		}
		col[j] = ids[local]
	}
}

// sortColumns co-sorts two parallel column spans by (id, payload): both fit
// 32 bits, so packing each row into one uint64 makes it a single integer
// sort. packed is scratch, returned for reuse.
func sortColumns[ID ~uint32, P ~int32 | ~uint32](packed []uint64, ids []ID, payload []P) []uint64 {
	if len(ids) < 2 {
		return packed
	}
	packed = packed[:0]
	for j := range ids {
		packed = append(packed, uint64(ids[j])<<32|uint64(uint32(payload[j])))
	}
	slices.Sort(packed)
	for j, key := range packed {
		ids[j], payload[j] = ID(key>>32), P(uint32(key))
	}
	return packed
}

// tokenKey orders tokens by string at the price of an integer comparison:
// prefix is the token's first eight bytes, big-endian. A token holds no zero
// byte, so two different tokens with equal prefixes are both longer than
// eight bytes, and only those are compared as strings.
type tokenKey struct {
	prefix uint64
	id     TokenID
}

func tokenKeys(strs *FrozenStrings) []uint64 {
	keys := make([]uint64, strs.Len())
	for id := range keys {
		keys[id] = prefixKey(strs.At(id))
	}
	return keys
}

// prefixKey packs the first eight bytes of s, zero-padded, big-endian: two
// strings whose keys differ order as their keys do.
func prefixKey(s string) uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// sortTokens orders toks by token string and drops duplicates, in place; it
// returns how many are left. scratch is returned for reuse.
func sortTokens(scratch []tokenKey, toks []TokenID, keys []uint64, strs *FrozenStrings) ([]tokenKey, int32) {
	scratch = scratch[:0]
	for _, id := range toks {
		scratch = append(scratch, tokenKey{keys[id], id})
	}
	slices.SortFunc(scratch, func(a, c tokenKey) int {
		if a.prefix != c.prefix {
			return cmp.Compare(a.prefix, c.prefix)
		}
		if a.id == c.id {
			return 0
		}
		return strings.Compare(strs.At(int(a.id)), strs.At(int(c.id)))
	})
	n := 0
	for j, k := range scratch {
		if j == 0 || k.id != scratch[j-1].id {
			toks[n] = k.id
			n++
		}
	}
	return scratch, int32(n)
}
