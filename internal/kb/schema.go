package kb

import (
	"sync"
	"unsafe"
)

// PredID is a dense identifier for a distinct relation predicate inside a
// Schema. Like TokenID, IDs are assigned in first-intern order; stages that
// need a deterministic order sort by the predicate string or by an explicit
// importance rank, never by the numeric ID.
type PredID uint32

// AttrID is a dense identifier for a distinct literal attribute name inside
// a Schema.
type AttrID uint32

// ValueID is a dense identifier for a distinct NORMALIZED literal value
// (NormalizeName) inside a Schema. Interning the normalized form at build
// time is what lets the attribute statistics count distinct values and the
// name(e) function skip per-call normalization entirely.
type ValueID uint32

// symtab is the string-interning core behind the token Interner and the
// three schema dictionaries: a mutex-guarded map plus an append-only string
// table (IDs never reassigned, reads lock-free once interning is done).
// Strings interned from bytes are carved out of an arena, so a dictionary of
// a million short strings costs a few dozen allocations, not a million.
type symtab struct {
	mu    sync.Mutex
	ids   map[string]uint32
	strs  []string
	arena arena
	// frozen, when set, backs a read-only dictionary loaded from a snapshot:
	// reads route to the flat table and interning panics (see NewFrozenSchema).
	frozen *FrozenStrings
}

func newSymtab() symtab {
	return symtab{ids: make(map[string]uint32)}
}

func (t *symtab) intern(s string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen != nil {
		panic("kb: intern into a frozen (snapshot-backed) dictionary")
	}
	if id, ok := t.ids[s]; ok {
		return id
	}
	return t.add(s)
}

// internBytes is intern for text still sitting in a read buffer: the lookup
// allocates nothing, and only a first sighting copies b (into the arena).
// The caller holds t.mu — the ingester takes it once per literal, not once
// per token.
func (t *symtab) internBytes(b []byte) uint32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	if t.frozen != nil {
		panic("kb: intern into a frozen (snapshot-backed) dictionary")
	}
	return t.add(t.arena.add(b))
}

func (t *symtab) add(s string) uint32 {
	id := uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// reserve sizes a still-empty dictionary for n strings, so that loading a
// large KB does not grow the map a dozen times on the way.
func (t *symtab) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen == nil && len(t.strs) == 0 {
		t.ids = make(map[string]uint32, n)
		t.strs = make([]string, 0, n)
	}
}

func (t *symtab) lookup(s string) (uint32, bool) {
	if t.frozen != nil {
		return t.frozen.Lookup(s)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[s]
	return id, ok
}

func (t *symtab) len() int {
	if t.frozen != nil {
		return t.frozen.Len()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.strs)
}

// str is lock-free: IDs are never reassigned. Callers must not race it with
// interning — in the pipeline all interning happens at KB build time,
// strictly before any resolution stage reads the dictionary.
func (t *symtab) str(id uint32) string {
	if t.frozen != nil {
		return t.frozen.At(int(id))
	}
	return t.strs[id]
}

// snapshot returns the strings interned so far. The result is safe to read
// while other goroutines keep interning: entries are never rewritten.
func (t *symtab) snapshot() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strs[:len(t.strs):len(t.strs)]
}

// arena hands out immutable strings carved from large byte chunks. Chunks
// start small, so the thousands of tiny dictionaries tests build stay tiny.
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

// Schema is the schema-axis counterpart of the token Interner: the shared
// dictionaries of relation predicates, literal attribute names, and
// normalized literal values. Web KBs have a tiny schema vocabulary next to
// their token vocabulary, so every statistics pass that used to group on
// predicate/attribute STRINGS can instead count into flat arrays indexed by
// these dense IDs.
//
// One Schema can back several KBs: build both sides of a clean-clean ER pair
// with NewBuilderWithDicts and the same Schema, and the two KBs share one
// predicate/attribute ID space (mirroring the shared token dictionary).
type Schema struct {
	preds symtab
	attrs symtab
	vals  symtab
}

// NewSchema returns an empty schema dictionary set.
func NewSchema() *Schema {
	return &Schema{preds: newSymtab(), attrs: newSymtab(), vals: newSymtab()}
}

// Preds returns the number of distinct relation predicates interned so far.
func (s *Schema) Preds() int { return s.preds.len() }

// Attrs returns the number of distinct attribute names interned so far.
func (s *Schema) Attrs() int { return s.attrs.len() }

// Values returns the number of distinct normalized values interned so far.
func (s *Schema) Values() int { return s.vals.len() }

// InternPred returns the dense ID of a relation predicate, assigning the
// next ID on first sight.
func (s *Schema) InternPred(p string) PredID { return PredID(s.preds.intern(p)) }

// InternAttr returns the dense ID of an attribute name.
func (s *Schema) InternAttr(a string) AttrID { return AttrID(s.attrs.intern(a)) }

// InternValue returns the dense ID of a NORMALIZED literal value. Callers
// pass NormalizeName output; the raw value strings are never interned.
func (s *Schema) InternValue(v string) ValueID { return ValueID(s.vals.intern(v)) }

// LookupPred returns the ID of predicate p if it has been interned.
func (s *Schema) LookupPred(p string) (PredID, bool) {
	id, ok := s.preds.lookup(p)
	return PredID(id), ok
}

// LookupAttr returns the ID of attribute name a if it has been interned.
func (s *Schema) LookupAttr(a string) (AttrID, bool) {
	id, ok := s.attrs.lookup(a)
	return AttrID(id), ok
}

// LookupValue returns the ID of a NORMALIZED literal value if it has been
// interned. Callers pass NormalizeName output, like InternValue.
func (s *Schema) LookupValue(v string) (ValueID, bool) {
	id, ok := s.vals.lookup(v)
	return ValueID(id), ok
}

// Pred returns the string of an interned predicate ID (lock-free; see symtab.str).
func (s *Schema) Pred(id PredID) string { return s.preds.str(uint32(id)) }

// Attr returns the string of an interned attribute ID.
func (s *Schema) Attr(id AttrID) string { return s.attrs.str(uint32(id)) }

// Value returns the normalized string of an interned value ID.
func (s *Schema) Value(id ValueID) string { return s.vals.str(uint32(id)) }
