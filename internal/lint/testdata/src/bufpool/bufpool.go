// Package bufpool is a swarmlint test fixture: each function exercises
// one bufpool-analyzer behavior, with expected diagnostics declared in
// want comments.
package bufpool

import "swarm/internal/wire"

var registry []byte

func leak() {
	buf := wire.GetBuffer(64) // want "never reaches"
	if len(buf) > 0 {
		buf[0] = 1
	}
}

func discarded() {
	wire.GetBuffer(64) // want "discarded"
}

func blankAssigned() {
	_ = wire.GetBuffer(64) // want "discarded"
}

func released() {
	buf := wire.GetBuffer(64)
	wire.PutBuffer(buf)
}

func releasedResliced() {
	buf := wire.GetBuffer(64)
	buf = buf[:32] // self-reslice is not an escape ...
	wire.PutBuffer(buf)
}

func returned() []byte {
	return wire.GetBuffer(64)
}

func namedResult() (b []byte) {
	b = wire.GetBuffer(64)
	return
}

func storedGlobally() {
	buf := wire.GetBuffer(64)
	registry = buf
}

func sentAway(sink chan []byte) {
	buf := wire.GetBuffer(64)
	sink <- buf
}

func inComposite() [][]byte {
	return [][]byte{wire.GetBuffer(64)}
}

// consume takes ownership of b and releases it. swarmlint:owns-buffer
func consume(b []byte) { wire.PutBuffer(b) }

func borrow(b []byte) {}

func transferred() {
	buf := wire.GetBuffer(64)
	consume(buf)
}

func transferredDirect() {
	consume(wire.GetBuffer(64))
}

func lentDirect() {
	borrow(wire.GetBuffer(64)) // want "does not take ownership"
}

func annotatedSite() {
	buf := wire.GetBuffer(64) // swarmlint:owns-buffer (handed off out of band)
	if len(buf) > 0 {
		buf[0] = 1
	}
}

func doublePut() {
	buf := wire.GetBuffer(64)
	wire.PutBuffer(buf)
	wire.PutBuffer(buf) // want "double wire.PutBuffer"
}

func disjointPuts(cond bool) {
	// One put per path is correct, and must not look like a double put.
	buf := wire.GetBuffer(64)
	if cond {
		wire.PutBuffer(buf)
		return
	}
	wire.PutBuffer(buf)
}

func leakOnOnePath(fail bool) bool {
	// Released on the error branch only: the fall-through path leaks.
	buf := wire.GetBuffer(64) // want "on every path"
	if fail {
		wire.PutBuffer(buf)
		return false
	}
	return true
}

func doublePutApart() {
	buf := wire.GetBuffer(64)
	wire.PutBuffer(buf)
	registry = nil
	wire.PutBuffer(buf) // want "double wire.PutBuffer"
}

func namedResultDropped(fail bool) (b []byte) {
	// A bare return hands b to the caller; return nil drops it.
	b = wire.GetBuffer(64) // want "on every path"
	if fail {
		return nil
	}
	return
}

func deferredPut(fail bool) bool {
	buf := wire.GetBuffer(64)
	defer wire.PutBuffer(buf)
	return fail
}
