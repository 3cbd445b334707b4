package kb

import (
	"io"
	"sync/atomic"

	"minoaner/internal/parallel"
)

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

// DescriptionsBuilt reports whether k holds its Description array: on a
// built KB and on a snapshot-backed one alike, only once something asked
// for a *Description.
func DescriptionsBuilt(k *KB) bool { return k.lazy.entities != nil }

// Tracked is a deferred check a test watches, counting the runs of its
// check function.
type Tracked struct {
	*Deferred
	runs atomic.Int32
}

// Runs reports how many times the check function has run.
func (t *Tracked) Runs() int { return int(t.runs.Load()) }

// Name names the section the check guards.
func (t *Tracked) Name() string { return t.name }

// TrackDeferred watches every deferred check made until the returned stop is
// called, which returns them in the order they were made. The checks must be
// made on the calling goroutine; they may run on any.
func TrackDeferred() (stop func() []*Tracked) {
	var got []*Tracked
	made = func(d *Deferred) {
		tr := &Tracked{Deferred: d}
		fn := d.fn
		d.fn = func(e *parallel.Engine) error {
			tr.runs.Add(1)
			return fn(e)
		}
		got = append(got, tr)
	}
	return func() []*Tracked {
		made = nil
		return got
	}
}

// FrozenCheck is the deferred check of a string table from a file.
func FrozenCheck(f *FrozenStrings) *Deferred { return f.check }
