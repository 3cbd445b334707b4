// Frozen (read-only, flat) string tables. A FrozenStrings stores every string
// of one dictionary as a single byte blob plus CSR offsets, with an optional
// string-sorted permutation enabling binary-search Lookup — no map, no
// per-string allocation. It is the layout every dictionary has from the
// start (see symtab): freezing a live one aliases its bytes, and one loaded
// from a memory-mapped snapshot aliases the mapping, so both cost O(1) to
// "build" apart from the permutation. Frozen tables are immutable; interning
// into one panics, which is exactly the read-only contract a snapshot-backed
// KB promises.
package kb

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"
)

// FrozenStrings is an immutable string table: string i is blob[off[i]:off[i+1]].
// When sorted is non-nil it is the permutation of indices ordered by string,
// enabling Lookup by binary search; a nil sorted table supports At only
// (used for value blobs that are never looked up).
type FrozenStrings struct {
	blob   []byte
	off    []int64
	sorted []uint32
}

// NewFrozenStrings assembles a frozen table over caller-provided backing
// arrays (typically views into a memory-mapped snapshot region; the table
// aliases them). off must hold n+1 non-decreasing offsets covering blob
// exactly; sorted must be nil or hold n indices below n (an entry that is in
// range but out of order only makes Lookup miss).
func NewFrozenStrings(blob []byte, off []int64, sorted []uint32) (*FrozenStrings, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("kb: frozen strings: empty offset table")
	}
	n := len(off) - 1
	if off[0] != 0 || off[n] != int64(len(blob)) {
		return nil, fmt.Errorf("kb: frozen strings: offsets [%d..%d] do not cover blob of %d bytes", off[0], off[n], len(blob))
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return nil, fmt.Errorf("kb: frozen strings: offsets decrease at %d", i)
		}
	}
	if sorted != nil && len(sorted) != n {
		return nil, fmt.Errorf("kb: frozen strings: sorted permutation has %d entries, want %d", len(sorted), n)
	}
	for _, i := range sorted {
		if int(i) >= n {
			return nil, fmt.Errorf("kb: frozen strings: sorted permutation names string %d of %d", i, n)
		}
	}
	return &FrozenStrings{blob: blob, off: off, sorted: sorted}, nil
}

// FreezeStrings builds a frozen table from a live string slice (the write
// side of snapshot serialization). withLookup additionally computes the
// string-sorted permutation so the frozen table supports Lookup.
func FreezeStrings(strs []string, withLookup bool) *FrozenStrings {
	total := 0
	for _, s := range strs {
		total += len(s)
	}
	f := &FrozenStrings{
		blob: make([]byte, 0, total),
		off:  make([]int64, len(strs)+1),
	}
	for i, s := range strs {
		f.off[i] = int64(len(f.blob))
		f.blob = append(f.blob, s...)
	}
	f.off[len(strs)] = int64(len(f.blob))
	if withLookup {
		f.sorted = sortedOrder(len(strs), f.At)
	}
	return f
}

// SortedOrder returns the indices of strs in string order (equal strings by
// index).
func SortedOrder(strs []string) []uint32 {
	return sortedOrder(len(strs), func(i int) string { return strs[i] })
}

// sortedOrder is SortedOrder over any indexed table — the ingester's keyed
// sort: strings compare by their first eight bytes as one integer, and as
// strings only where those tie.
func sortedOrder(n int, at func(int) string) []uint32 {
	keys := make([]tokenKey, n)
	for i := range keys {
		keys[i] = tokenKey{prefixKey(at(i)), TokenID(i)}
	}
	slices.SortFunc(keys, func(a, c tokenKey) int {
		if a.prefix != c.prefix {
			return cmp.Compare(a.prefix, c.prefix)
		}
		if byString := strings.Compare(at(int(a.id)), at(int(c.id))); byString != 0 {
			return byString
		}
		return cmp.Compare(a.id, c.id)
	})
	order := make([]uint32, n)
	for i, k := range keys {
		order[i] = uint32(k.id)
	}
	return order
}

// Len returns the number of strings.
func (f *FrozenStrings) Len() int { return len(f.off) - 1 }

// At returns string i without copying: the result aliases the blob. The
// empty string is returned for empty spans (never a pointer past the blob).
func (f *FrozenStrings) At(i int) string {
	lo, hi := f.off[i], f.off[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&f.blob[lo], hi-lo)
}

// Lookup finds the index of s by binary search over the sorted permutation.
// It reports false when s is absent or the table was frozen without lookup
// support.
func (f *FrozenStrings) Lookup(s string) (uint32, bool) {
	if f.sorted == nil {
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(f.sorted, s, func(idx uint32, target string) int {
		return strings.Compare(f.At(int(idx)), target)
	})
	if !ok {
		return 0, false
	}
	return f.sorted[i], true
}

// Parts exposes the backing arrays for serialization. Callers must treat
// them as read-only.
func (f *FrozenStrings) Parts() (blob []byte, off []int64, sorted []uint32) {
	return f.blob, f.off, f.sorted
}

// NewFrozenInterner wraps a frozen string table as a read-only token
// dictionary: TokenString/Lookup/Len route to the table, Intern panics.
func NewFrozenInterner(fs *FrozenStrings) *Interner {
	return &Interner{t: frozenSymtab(fs)}
}

// Freeze returns the interner's current contents as a frozen table with
// lookup support (token ID i maps to string i, preserving the dense ID
// space). The table aliases the dictionary's own bytes; only the sorted
// permutation is computed. A frozen interner returns its own table.
func (in *Interner) Freeze() *FrozenStrings { return in.t.freeze() }

// NewFrozenSchema wraps three frozen tables (predicates, attribute names,
// normalized values) as a read-only schema dictionary set. ID spaces are
// positional, so a schema round-tripped through Freeze/NewFrozenSchema
// assigns exactly the original IDs.
func NewFrozenSchema(preds, attrs, vals *FrozenStrings) *Schema {
	return &Schema{preds: frozenSymtab(preds), attrs: frozenSymtab(attrs), vals: frozenSymtab(vals)}
}

// Freeze returns the schema's three dictionaries as frozen tables with
// lookup support, aliasing them like Interner.Freeze.
func (s *Schema) Freeze() (preds, attrs, vals *FrozenStrings) {
	return s.preds.freeze(), s.attrs.freeze(), s.vals.freeze()
}
