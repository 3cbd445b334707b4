package kb

import (
	"cmp"
	"slices"
	"strings"
	"unsafe"

	"minoaner/internal/parallel"
)

// Builder is the one construction path of a KB — the ingester behind every
// loader and behind hand-built KBs alike. Each statement registers its
// subject, interns the literal's tokens into the token dictionary and its
// normalized value (NormalizeName) into the schema's value dictionary, and
// appends one flat statement record. Every dictionary is written in
// statement order, so IDs — and the bytes of a snapshot — are a function of
// the input alone. The loaders parse a file in chunks, in parallel, and merge
// the chunks into the Builder in input order (see ingest). Hand-built
// literals intern their values a batch at a time (see valueStage).
//
// Build then counting-sorts the statements by subject: every description's
// Attrs, Relations and tokens, and the six columns, are sub-slices of a
// handful of flat allocations. Object values that name a described entity
// become relations; all other values are literal attributes, exactly as the
// paper defines relations(e) and neighbors(e). An object URI that is only
// described later in the input, or never, is settled at Build in place, so a
// description's statements keep their input order.
//
// Subject URIs are interned into a table of the Builder's own, which the KB
// keeps: EntityID i is string i, and an object URI is looked up in it.
type Builder struct {
	name   string
	dict   *Interner
	schema *Schema

	uris *symtab
	// text backs every pending object URI that arrived as bytes.
	text arena

	// preds are the distinct predicates in first-seen order. Whether one is
	// an attribute name, a relation predicate or both is only known at
	// Build, which is when they enter the schema dictionaries.
	preds symtab

	stmts []statement
	// toks holds the token occurrences of every literal, in statement order.
	toks []TokenID
	low  []byte // lower-casing scratch of tokenize

	values valueStage
}

// statement is one input statement. obj is the relation target, or one of
// the three markers below.
type statement struct {
	subj EntityID
	pred uint32 // index into Builder.preds
	obj  EntityID
	ntok uint32 // literals: how many of Builder.toks are this statement's
	text string // the literal value, or the object URI while it is pending
}

const (
	objLiteral EntityID = -1 - iota // a literal value
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
		values: valueStage{vals: &schema.vals},
	}
}

// AddEntity registers (or finds) the entity with the given URI and returns
// its ID. Adding the same URI twice returns the same ID.
func (b *Builder) AddEntity(uri string) EntityID {
	return EntityID(b.uris.internBytes(bytesOf(uri)))
}

// AddLiteral attaches a literal attribute-value pair to the entity.
func (b *Builder) AddLiteral(id EntityID, attribute, value string) {
	b.literal(id, b.pred(attribute), value)
}

// AddObject attaches an object (URI-position) value. It becomes a relation
// if the URI names a described entity — now or by the time of Build —
// otherwise a literal.
func (b *Builder) AddObject(id EntityID, predicate, objectURI string) {
	st := statement{subj: id, pred: b.pred(predicate), obj: objPending, text: objectURI}
	if obj, ok := b.uris.find(bytesOf(objectURI)); ok {
		st.obj, st.text = EntityID(obj), ""
	}
	b.stmts = appendDoubling(b.stmts, st)
}

func (b *Builder) pred(name string) uint32 { return b.preds.internBytes(bytesOf(name)) }

func (b *Builder) literal(id EntityID, pred uint32, value string) {
	b.stmts = appendDoubling(b.stmts, statement{subj: id, pred: pred, obj: objLiteral, ntok: b.tokenize(value), text: value})
	b.values.add(value)
}

// tokenize appends the token IDs of one literal to b.toks, interning tokens
// not seen before, and returns how many there were.
func (b *Builder) tokenize(value string) uint32 {
	n := len(b.toks)
	low := lowerBytes(&b.low, bytesOf(value))
	t := &b.dict.t
	t.mu.Lock()
	for i := 0; ; {
		start, end := nextToken(low, i)
		if start == end {
			break
		}
		b.toks = appendDoubling(b.toks, TokenID(t.internBytes(low[start:end])))
		i = end
	}
	t.mu.Unlock()
	return uint32(len(b.toks) - n)
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

// arena hands out immutable strings carved from large byte chunks, so the
// pending URIs of a million statements cost a few dozen allocations, not a
// million. Chunks start small, so the thousands of tiny KBs tests build stay
// tiny.
type arena struct {
	chunk []byte // current chunk; its length is the part handed out
	size  int    // capacity of the current chunk's size class
}

const maxArenaChunk = 1 << 20

func (a *arena) add(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(a.chunk)-len(a.chunk) < len(b) {
		a.size = min(max(2*a.size, 1<<10), maxArenaChunk)
		a.chunk = make([]byte, 0, max(a.size, len(b)))
	}
	n := len(a.chunk)
	a.chunk = append(a.chunk, b...)
	return unsafe.String(&a.chunk[n], len(b))
}

// valueStage turns literal values into ValueIDs, in the order they were
// added. A hand-built literal's value waits in a batch, interned when the
// batch holds valueBatchBytes of text or at Build: Builders that share a
// Schema and are fed in turn, as datagen feeds a pair, get ValueIDs that
// depend on where those batches end, and a snapshot stores them. A loader's
// chunks append their ValueIDs to ids directly (merger.merge).
type valueStage struct {
	vals *symtab
	ids  []ValueID // one per value consumed
	low  []byte    // scratch of flush
	norm []byte

	batch      []string
	batchBytes int
}

const valueBatchBytes = 256 << 10

func (v *valueStage) add(value string) {
	v.batch = append(v.batch, value)
	if v.batchBytes += len(value); v.batchBytes >= valueBatchBytes {
		v.flush()
	}
}

func (v *valueStage) flush() {
	v.vals.mu.Lock()
	for _, s := range v.batch {
		v.norm = appendNormalized(v.norm[:0], lowerBytes(&v.low, bytesOf(s)))
		v.ids = appendDoubling(v.ids, ValueID(v.vals.internBytes(v.norm)))
	}
	v.vals.mu.Unlock()
	v.batch, v.batchBytes = v.batch[:0], 0
}

// Build finalizes the KB and returns it. The Builder must not be used
// afterwards.
func (b *Builder) Build() *KB {
	n := b.uris.tab.Len()

	// Pass 1, in statement order: settle every object URI that named no
	// entity when it arrived — a forward reference is the relation it looks
	// like, a URI nobody describes is a literal — and count each entity's
	// statements and token occurrences. Demoted URIs are tokenized and
	// normalized here, so their tokens and ValueIDs follow those of the
	// literals that arrived as such.
	b.values.flush()
	literalToks, literalVals := len(b.toks), len(b.values.ids)
	attrOff := make([]int32, n+1)
	relOff := make([]int32, n+1)
	tokOff := make([]int, n+1)
	for i := range b.stmts {
		st := &b.stmts[i]
		if st.obj == objPending {
			if obj, ok := b.uris.find(bytesOf(st.text)); ok {
				st.obj, st.text = EntityID(obj), ""
			} else {
				st.obj, st.ntok = objDemoted, b.tokenize(st.text)
				b.values.add(st.text)
			}
		}
		if st.obj >= 0 {
			relOff[st.subj+1]++
		} else {
			attrOff[st.subj+1]++
			tokOff[st.subj+1] += int(st.ntok)
		}
	}
	b.values.flush()
	for i := 0; i < n; i++ {
		attrOff[i+1] += attrOff[i]
		relOff[i+1] += relOff[i]
		tokOff[i+1] += tokOff[i]
	}

	// Pass 2, in statement order again: a stable scatter by subject. The two
	// predicate columns hold Builder-local IDs until pass 3.
	nAttr, nRel := int(attrOff[n]), int(relOff[n])
	attrs := make([]AttributeValue, nAttr)
	rels := make([]Relation, nRel)
	c := columns{
		relOff: relOff, relPred: make([]PredID, nRel), relObj: make([]EntityID, nRel),
		attrOff: attrOff, attrName: make([]AttrID, nAttr), attrVal: make([]ValueID, nAttr),
	}
	gathered := make([]TokenID, tokOff[n])
	attrAt, relAt, tokAt := slices.Clone(attrOff[:n]), slices.Clone(relOff[:n]), slices.Clone(tokOff[:n])
	tok, val := 0, 0                       // next token / ValueID of a literal
	dtok, dval := literalToks, literalVals // ... of a demoted URI
	for i := range b.stmts {
		st := &b.stmts[i]
		if st.obj >= 0 {
			j := relAt[st.subj]
			relAt[st.subj]++
			rels[j] = Relation{Predicate: b.preds.str(st.pred), Object: st.obj}
			c.relPred[j], c.relObj[j] = PredID(st.pred), st.obj
			continue
		}
		t, v := &tok, &val
		if st.obj == objDemoted {
			t, v = &dtok, &dval
		}
		j := attrAt[st.subj]
		attrAt[st.subj]++
		attrs[j] = AttributeValue{Attribute: b.preds.str(st.pred), Value: st.text}
		c.attrName[j], c.attrVal[j] = AttrID(st.pred), b.values.ids[*v]
		*v++
		copy(gathered[tokAt[st.subj]:], b.toks[*t:*t+int(st.ntok)])
		tokAt[st.subj] += int(st.ntok)
		*t += int(st.ntok)
	}
	triples := len(b.stmts)
	b.stmts, b.toks, b.values = nil, nil, valueStage{}

	// Pass 3: predicates enter the schema dictionaries in the order the
	// finished KB lists them — by entity, then by statement.
	internColumn(c.relPred, &b.preds, b.schema.InternPred)
	internColumn(c.attrName, &b.preds, b.schema.InternAttr)

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

	total := 0
	for _, l := range tokLen {
		total += int(l)
	}
	tokens := make([]TokenID, 0, total)
	entities := make([]Description, n)
	for i := range entities {
		lo := len(tokens)
		tokens = append(tokens, gathered[tokOff[i]:tokOff[i]+int(tokLen[i])]...)
		entities[i] = Description{
			URI:       b.uris.str(uint32(i)),
			Attrs:     attrs[attrOff[i]:attrOff[i+1]:attrOff[i+1]],
			Relations: rels[relOff[i]:relOff[i+1]:relOff[i+1]],
			tokens:    tokens[lo:len(tokens):len(tokens)],
			dict:      b.dict,
		}
	}
	kb := &KB{
		name: b.name, size: n, entities: entities, uris: b.uris,
		dict: b.dict, schema: b.schema, cols: c, triples: triples,
	}
	b.uris = nil
	return kb
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
