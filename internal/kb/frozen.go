// Frozen (read-only, flat) string tables. A FrozenStrings stores every string
// of one dictionary as a single byte blob plus CSR offsets, with an optional
// string-sorted permutation enabling binary-search Lookup — no map, no
// per-string allocation. It is the layout every dictionary has from the
// start (see symtab): freezing a live one aliases its bytes, and one loaded
// from a memory-mapped snapshot aliases the mapping, so both cost O(1) to
// "build" apart from the permutation. Frozen tables are immutable; interning
// into one panics, which is exactly the read-only contract a snapshot-backed
// KB promises.
//
// Every sorted permutation — of a dictionary, a KB's URIs, FreezeStrings'
// tables and SortedOrder's strings — comes from one kernel (strorder.go): an
// MSD radix sort over 8-byte big-endian chunks of the strings, each chunk
// sorted by stable byte passes through one scratch buffer, with only the
// runs that tie on a whole chunk recursing into the next one.
package kb

import (
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
	// check is the deferred whole-table check of a table installed over
	// arrays from a file (nil for one built here): until it has run, At and
	// Lookup check the offsets and permutation entries they touch.
	check *Deferred
}

// NewFrozenStrings assembles a frozen table over caller-provided backing
// arrays (typically views into a memory-mapped snapshot region; the table
// aliases them). off must hold n+1 non-decreasing offsets covering blob
// exactly; sorted must be nil or hold n indices below n (an entry that is in
// range but out of order only makes Lookup miss). Only the ends of the offset
// table and the permutation's length are checked here; the rest is the
// table's deferred check (Check), which At and Lookup run if a string they
// touch is damaged — they then return "" and a miss.
func NewFrozenStrings(blob []byte, off []int64, sorted []uint32) (*FrozenStrings, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("kb: frozen strings: empty offset table")
	}
	n := len(off) - 1
	if off[0] != 0 || off[n] != int64(len(blob)) {
		return nil, fmt.Errorf("kb: frozen strings: offsets [%d..%d] do not cover blob of %d bytes", off[0], off[n], len(blob))
	}
	if sorted != nil && len(sorted) != n {
		return nil, fmt.Errorf("kb: frozen strings: sorted permutation has %d entries, want %d", len(sorted), n)
	}
	f := &FrozenStrings{blob: blob, off: off, sorted: sorted}
	f.check = NewDeferred("string table", f.checkAll)
	return f, nil
}

// checkAll is the whole-table check: offsets non-decreasing, permutation
// entries in range.
func (f *FrozenStrings) checkAll() error {
	n := f.Len()
	for i := 0; i < n; i++ {
		if f.off[i] > f.off[i+1] {
			return fmt.Errorf("offsets decrease at %d", i)
		}
	}
	for _, i := range f.sorted {
		if int(i) >= n {
			return fmt.Errorf("sorted permutation names string %d of %d", i, n)
		}
	}
	return nil
}

// Check runs the table's deferred check, once, and returns its verdict.
func (f *FrozenStrings) Check() error { return f.check.Run() }

// Err reports damage At or Lookup found (the failed verdict of the check
// they ran), without running anything.
func (f *FrozenStrings) Err() error { return f.check.Known() }

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
		f.sorted = sortedOrder(f)
	}
	return f
}

// SortedOrder returns the indices of strs in string order (equal strings by
// index).
func SortedOrder(strs []string) []uint32 {
	return sortedOrder(FreezeStrings(strs, false))
}

// Len returns the number of strings.
func (f *FrozenStrings) Len() int { return len(f.off) - 1 }

// At returns string i without copying: the result aliases the blob. The
// empty string is returned for empty spans (never a pointer past the blob),
// and for a damaged span of a table from a file, whose check then fails.
func (f *FrozenStrings) At(i int) string {
	if f.check != nil && !f.spanIntact(i) {
		_ = f.check.Run()
		return ""
	}
	lo, hi := f.off[i], f.off[i+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&f.blob[lo], hi-lo)
}

// spanIntact reports whether string i's offsets lie inside the blob and in
// order with the offsets beside them. Damage that moves either end of the
// string so that the whole-table check would see it makes the offsets
// decrease among these four, so At reads no shifted string.
func (f *FrozenStrings) spanIntact(i int) bool {
	lo, hi := f.off[i], f.off[i+1]
	if lo < 0 || lo > hi || hi > int64(len(f.blob)) {
		return false
	}
	return (i == 0 || f.off[i-1] <= lo) && (i+2 >= len(f.off) || hi <= f.off[i+2])
}

// Lookup finds the index of s by binary search over the sorted permutation.
// It reports false when s is absent, the table was frozen without lookup
// support, or a permutation entry or string the search touches is damaged
// (the table's check has then failed).
func (f *FrozenStrings) Lookup(s string) (uint32, bool) {
	if f.sorted == nil || f.check.Known() != nil {
		return 0, false
	}
	n, damaged := uint32(f.Len()), false
	i, ok := slices.BinarySearchFunc(f.sorted, s, func(idx uint32, target string) int {
		if idx >= n {
			damaged = true
			return 0
		}
		return strings.Compare(f.At(int(idx)), target)
	})
	if damaged {
		_ = f.check.Run()
	}
	if !ok || f.check.Known() != nil {
		return 0, false
	}
	return f.sorted[i], true
}

// Parts exposes the backing arrays for serialization. Callers must treat
// them as read-only, and check a table from a file first (Check).
func (f *FrozenStrings) Parts() (blob []byte, off []int64, sorted []uint32) {
	return f.blob, f.off, f.sorted
}

// NewFrozenInterner wraps a frozen string table as a read-only token
// dictionary: TokenString/Lookup/Len route to the table, Intern panics.
func NewFrozenInterner(fs *FrozenStrings) *Interner {
	return &Interner{t: frozenSymtab(fs)}
}

// Check runs the deferred check of a dictionary installed from a file
// (FrozenStrings.Check); a built dictionary has none.
func (in *Interner) Check() error { return in.t.tab.check.Run() }

// Err reports damage the dictionary's readers have found so far (a string
// read as "" whose table's check then failed), without running anything.
func (in *Interner) Err() error { return in.t.tab.check.Known() }

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
