// Package refcount is a swarmlint test fixture: each function
// exercises one refcount-analyzer behavior, with expected diagnostics
// declared in want comments.
package refcount

import "sync/atomic"

// Extent stands in for server.Extent: a refcounted object whose
// lifetime is its counter.
type Extent struct {
	refs atomic.Int32
	buf  []byte
}

// Release drops one reference.
func (e *Extent) Release() { e.refs.Add(-1) }

// get hands the caller a counted reference to a new extent.
// swarmlint:returns-ref
func get() *Extent {
	e := &Extent{}
	e.refs.Add(1)
	return e
}

// getErr is the two-result accessor convention: on error, no reference
// is handed out.
// swarmlint:returns-ref
func getErr(fail bool) (*Extent, error) {
	if fail {
		return nil, errFixture
	}
	return get(), nil
}

type fixtureErr struct{}

func (fixtureErr) Error() string { return "fixture" }

var errFixture error = fixtureErr{}

func releasesOnAllPaths(c bool) {
	e := get()
	if c {
		e.Release()
		return
	}
	e.Release()
}

func leaksOnEarlyReturn(c bool) {
	e := get() // want "not released"
	if c {
		return
	}
	e.Release()
}

func partialRelease(c bool) {
	e := get() // want "not released on every path"
	if c {
		e.Release()
	}
}

func deferredRelease(c bool) {
	e := get()
	defer e.Release()
	if c {
		return
	}
}

func escapeByReturn() *Extent {
	e := get()
	return e // the caller inherits the obligation
}

func nilChecked() {
	e := get()
	if e == nil {
		return // nil result: nothing was acquired
	}
	e.Release()
}

func errBuddy(fail bool) error {
	e, err := getErr(fail)
	if err != nil {
		return err // error: no reference was handed out
	}
	e.Release()
	return nil
}

func manualPinLeaks(e *Extent) {
	e.refs.Add(1) // want "not released"
}

func manualPinReleased(e *Extent) {
	e.refs.Add(1)
	e.Release()
}

// lruEntry stands in for container/list.Element.
type lruEntry struct{ Value any }

type store struct {
	index map[int]*lruEntry
}

// removeLeak unlinks the entry but drops the container's reference on
// the floor.
func (s *store) removeLeak(k int) {
	el := s.index[k]
	e := el.Value.(*Extent) // want "not released"
	delete(s.index, k)
	_ = e
}

// removeClean releases what it unlinks.
func (s *store) removeClean(k int) {
	el := s.index[k]
	e := el.Value.(*Extent)
	delete(s.index, k)
	e.Release()
}

// lookupOnly never removes anything, so extracting the value is a
// borrow, not an acquisition.
func (s *store) lookupOnly(k int) int {
	el := s.index[k]
	e := el.Value.(*Extent)
	return len(e.buf)
}

// consume takes ownership of its argument.
func consume(e *Extent) { e.Release() }

func handoffToCall() {
	e := get()
	consume(e) // same-package transfer discharges the obligation
}

func handoffToGoroutine() {
	e := get()
	go func() { e.Release() }()
}

// holder's reference has a release hook, satisfying the field audit.
type holder struct {
	ext *Extent
}

func (h *holder) drop() { h.ext.Release() }

func wrapInHolder() *holder {
	e := get()
	return &holder{ext: e} // escape into a composite literal
}

// leakyHolder has no release hook anywhere in the package.
type leakyHolder struct {
	ext2 *Extent // want "no method in this package releases it"
}

// annotatedHolder documents its out-of-band lifecycle.
type annotatedHolder struct {
	// swarmlint:refcount-ok — released by the frame writer after splice
	ext3 *Extent
}

func annotatedAcquire() {
	e := get() // swarmlint:refcount-ok (lifetime owned by the test harness)
	_ = e
}

func doubleRelease(c bool) {
	e := get()
	e.Release()
	if c {
		e.Release() // want "released twice"
	}
}
