package kb

import "io"

// The reference implementations and the KB comparison, for the tests of
// package kb_test (which may import datagen; this package's own may not).

// RefLoadNTriples is LoadNTriples as it was before the byte-level ingester.
func RefLoadNTriples(name string, r io.Reader, lenient bool) (*KB, int, error) {
	b := newRefBuilder(name)
	skipped, err := refReadNTriples(b, r, lenient)
	if err != nil {
		return nil, skipped, err
	}
	return b.Build(), skipped, nil
}

var DiffKB = diffKB

// DescriptionsBuilt reports whether k holds its Description array — always
// true for a built KB, and true for a snapshot-backed one only once
// something asked for a *Description.
func DescriptionsBuilt(k *KB) bool { return k.lazy == nil || k.entities != nil }
