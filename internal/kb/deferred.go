package kb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"minoaner/internal/parallel"
)

// ErrCorrupt reports damage a deferred check found: a column or string table
// installed from a file names an ID outside the dictionary or KB it points
// into, or has offsets or a sorted permutation that do not describe its
// strings.
var ErrCorrupt = errors.New("kb: corrupt column")

// Deferred is a whole-section check that a loader leaves to the first reader
// that needs the whole section. It runs at most once and its verdict sticks.
// Readers that touch a few rows check those rows themselves and call Run only
// when they find damage, so the verdict names the section; Known reports the
// verdict without running anything. A nil *Deferred is a section that needs
// no check.
type Deferred struct {
	name string
	fn   func(*parallel.Engine) error
	once sync.Once
	done atomic.Bool
	err  error
}

// made, when set, is handed every check NewDeferred makes: tests set it to
// see which checks a reader runs.
var made func(*Deferred)

// NewDeferred returns the deferred check fn of the named section. fn's error
// comes back wrapped in ErrCorrupt and the name, and still matches errors.Is
// for what fn returned.
func NewDeferred(name string, fn func() error) *Deferred {
	return NewDeferredOn(name, func(*parallel.Engine) error { return fn() })
}

// NewDeferredOn is NewDeferred for a check that splits its walk over the
// engine of the reader that runs it (RunOn).
func NewDeferredOn(name string, fn func(e *parallel.Engine) error) *Deferred {
	d := &Deferred{name: name, fn: fn}
	if made != nil {
		made(d)
	}
	return d
}

// Run runs the check on first call, on one worker, and returns its verdict
// on every call.
func (d *Deferred) Run() error { return d.RunOn(parallel.Sequential()) }

// RunOn is Run with the check's walk, if it splits one, on e.
func (d *Deferred) RunOn(e *parallel.Engine) error {
	if d == nil {
		return nil
	}
	d.once.Do(func() {
		if err := d.fn(e); err != nil {
			d.err = fmt.Errorf("%w: %s: %w", ErrCorrupt, d.name, err)
		}
		d.fn = nil
		d.done.Store(true)
	})
	return d.err
}

// Known returns the verdict if the check has run, and nil otherwise.
func (d *Deferred) Known() error {
	if d == nil || !d.done.Load() {
		return nil
	}
	return d.err
}
