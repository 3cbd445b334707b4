package kb

import (
	"hash/maphash"
	"slices"
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

// symtab is the string table behind the token Interner, the three schema
// dictionaries, a KB's URIs and a Builder's predicates. Its strings are laid
// out, in first-intern order, exactly as a FrozenStrings (one byte blob plus
// offsets), and a live table adds an open-addressing index over them. There
// is no Go pointer per string — no map, no string headers — so the garbage
// collector has nothing to scan, and freezing the table copies nothing.
//
// The index is a power-of-two array of slots, each empty (0) or a 32-bit
// hash tag over id+1, probed linearly and kept at most 3/4 full. The hash is
// hash/maphash under a seed drawn per table, so no input can be crafted to
// collide; IDs are assigned in first-intern order all the same, a function
// of the input alone. Growth re-places every slot by its stored tag without
// hashing a string again.
//
// A frozen table (a snapshot's dictionary) has no index: it looks strings up
// through its sorted permutation, and interning into it panics.
type symtab struct {
	mu     sync.Mutex
	tab    FrozenStrings
	index  []uint64
	seed   maphash.Seed
	frozen bool // set at construction only, so read without the lock
}

// minIndex is the index size of a new table; minBlob the first blob chunk.
// Both start small, so the thousands of tiny dictionaries tests build stay
// tiny.
const (
	minIndex = 8
	minBlob  = 1 << 10
)

func newSymtab() symtab {
	return symtab{tab: FrozenStrings{off: []int64{0}}, index: make([]uint64, minIndex), seed: maphash.MakeSeed()}
}

func frozenSymtab(fs *FrozenStrings) symtab {
	return symtab{tab: *fs, frozen: true}
}

func (t *symtab) intern(s string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internBytes(bytesOf(s))
}

// internBytes is intern for text still sitting in a read buffer: the lookup
// allocates nothing, and only a first sighting copies b (onto the blob).
// The caller holds t.mu — the ingester takes it once per chunk or literal,
// not once per token — or is the only goroutine that uses the table.
func (t *symtab) internBytes(b []byte) uint32 {
	if t.frozen {
		panic("kb: intern into a frozen (snapshot-backed) dictionary")
	}
	tag := uint32(maphash.Bytes(t.seed, b))
	slot, id, ok := t.probe(b, tag)
	if ok {
		return id
	}
	id = uint32(t.tab.Len())
	if cap(t.tab.blob)-len(t.tab.blob) < len(b) {
		// Doubling: a string handed out earlier keeps the old array alive
		// and unchanged, since appends never write below the length.
		t.tab.blob = slices.Grow(t.tab.blob, max(len(t.tab.blob), len(b), minBlob))
	}
	t.tab.blob = append(t.tab.blob, b...)
	t.tab.off = appendDoubling(t.tab.off, int64(len(t.tab.blob)))
	t.index[slot] = uint64(tag)<<32 | uint64(id+1)
	if 4*(int(id)+1) > 3*len(t.index) {
		t.grow(2 * len(t.index))
	}
	return id
}

// probe finds b in the index, or else the empty slot where it belongs.
func (t *symtab) probe(b []byte, tag uint32) (slot int, id uint32, ok bool) {
	mask := len(t.index) - 1
	for slot = int(tag) & mask; ; slot = (slot + 1) & mask {
		e := t.index[slot]
		if e == 0 {
			return slot, 0, false
		}
		if uint32(e>>32) == tag {
			id = uint32(e) - 1
			if string(t.at(id)) == string(b) {
				return slot, id, true
			}
		}
	}
}

// grow re-places every slot into a fresh index of n slots.
func (t *symtab) grow(n int) {
	index := make([]uint64, n)
	mask := n - 1
	for _, e := range t.index {
		if e == 0 {
			continue
		}
		slot := int(e>>32) & mask
		for index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		index[slot] = e
	}
	t.index = index
}

// reserve sizes a still-empty dictionary for n strings, so that loading a
// large KB does not grow the index a dozen times on the way.
func (t *symtab) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen || t.tab.Len() > 0 {
		return
	}
	size := minIndex
	for 3*size < 4*n {
		size *= 2
	}
	t.index = make([]uint64, size)
	t.tab.off = make([]int64, 1, n+1)
}

// find looks b up without taking t.mu: the caller holds it, or nobody
// interns into the table any more (a built KB's URIs, a frozen table).
func (t *symtab) find(b []byte) (uint32, bool) {
	if t.frozen {
		return t.tab.Lookup(unsafe.String(unsafe.SliceData(b), len(b)))
	}
	_, id, ok := t.probe(b, uint32(maphash.Bytes(t.seed, b)))
	return id, ok
}

func (t *symtab) lookup(s string) (uint32, bool) {
	if !t.frozen {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return t.find(bytesOf(s))
}

func (t *symtab) len() int {
	if !t.frozen {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	return t.tab.Len()
}

// at returns string id as bytes of the table; the caller holds t.mu or is
// the only goroutine that uses the table.
func (t *symtab) at(id uint32) []byte { return t.tab.blob[t.tab.off[id]:t.tab.off[id+1]] }

// reset empties a table only its owner uses, keeping its arrays: nothing
// may hold a string of it any more.
func (t *symtab) reset() {
	clear(t.index)
	t.tab.blob, t.tab.off = t.tab.blob[:0], t.tab.off[:1]
}

// str is lock-free: IDs are never reassigned. Callers must not race it with
// interning — in the pipeline all interning happens at KB build time,
// strictly before any resolution stage reads the dictionary.
func (t *symtab) str(id uint32) string { return t.tab.At(int(id)) }

// view returns the strings interned so far as a table of their own (without
// a sorted permutation, unless the table is frozen). The view is safe to read
// while other goroutines keep interning: interning only appends past the
// view's end, and growth moves the table to new arrays, leaving the view's
// as they were.
func (t *symtab) view() FrozenStrings {
	if !t.frozen {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	blob, off := t.tab.blob, t.tab.off
	return FrozenStrings{blob: blob[:len(blob):len(blob)], off: off[:len(off):len(off)], sorted: t.tab.sorted, check: t.tab.check}
}

// freeze returns the table as a frozen one with lookup support: a view plus
// the sorted permutation, which is all it computes.
func (t *symtab) freeze() *FrozenStrings {
	f := t.view()
	if !t.frozen {
		f.sorted = sortedOrder(f.Len(), f.At)
	}
	return &f
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
