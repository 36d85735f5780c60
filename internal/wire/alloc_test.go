package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// The zero-copy claims are load-bearing: a 1 MB store RPC must cost O(1)
// small allocations on both the client encode path and the server decode
// path, with the payload never copied. These tests pin that.

const allocPayload = 1 << 20

// maxSmallAllocs is the allowance for fixed per-frame costs (encoder,
// net.Buffers slice, frame header/trailer escapes, decoder, message
// struct) — a handful of tens-of-bytes allocations, nothing scaling with
// the payload.
const maxSmallAllocs = 12

// maxBytesPerOp bounds the total bytes allocated per RPC. Well under the
// 1 MB payload ⇒ the payload was neither copied nor reallocated.
const maxBytesPerOp = 64 << 10

func measureBytesPerOp(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestStoreRequestEncodeAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, allocPayload)
	req := &StoreRequest{FID: MakeFID(1, 42), Mark: true, Data: payload}
	encode := func() {
		if err := WriteRequest(io.Discard, OpStore, 7, 1, req); err != nil {
			t.Fatal(err)
		}
	}
	encode() // warm
	if allocs := testing.AllocsPerRun(50, encode); allocs > maxSmallAllocs {
		t.Errorf("1 MB store encode: %.0f allocs/op, want <= %d", allocs, maxSmallAllocs)
	}
	if per := measureBytesPerOp(20, encode); per > maxBytesPerOp {
		t.Errorf("1 MB store encode: %d bytes allocated/op — payload is being copied", per)
	}
}

func TestStoreRequestDecodeAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, allocPayload)
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpStore, 7, 1, &StoreRequest{FID: MakeFID(1, 42), Data: payload}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	rd := bytes.NewReader(frame)
	decode := func() {
		rd.Reset(frame)
		req, err := ReadRequestFrame(rd)
		if err != nil {
			t.Fatal(err)
		}
		var sr StoreRequest
		if err := sr.Decode(NewDecoder(req.Body)); err != nil {
			t.Fatal(err)
		}
		if len(sr.Data) != allocPayload {
			t.Fatalf("payload length %d", len(sr.Data))
		}
		PutBuffer(req.Body)
	}
	decode() // warm the buffer pool so the body read is a pool hit
	if allocs := testing.AllocsPerRun(50, decode); allocs > maxSmallAllocs {
		t.Errorf("1 MB store decode: %.0f allocs/op, want <= %d", allocs, maxSmallAllocs)
	}
	if per := measureBytesPerOp(20, decode); per > maxBytesPerOp {
		t.Errorf("1 MB store decode: %d bytes allocated/op — body is being reallocated", per)
	}
}

func TestReadResponseRoundTripAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3c}, allocPayload)
	var buf bytes.Buffer
	if err := WriteResponse(&buf, OpRead, 9, &ReadResponse{Data: payload}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	rd := bytes.NewReader(frame)
	roundTrip := func() {
		if err := WriteResponse(io.Discard, OpRead, 9, &ReadResponse{Data: payload}); err != nil {
			t.Fatal(err)
		}
		rd.Reset(frame)
		rsp, err := ReadResponseFrame(rd)
		if err != nil {
			t.Fatal(err)
		}
		var rr ReadResponse
		if err := rr.Decode(NewDecoder(rsp.Body)); err != nil {
			t.Fatal(err)
		}
		if len(rr.Data) != allocPayload {
			t.Fatalf("payload length %d", len(rr.Data))
		}
		PutBuffer(rsp.Body)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 2*maxSmallAllocs {
		t.Errorf("1 MB read round trip: %.0f allocs/op, want <= %d", allocs, 2*maxSmallAllocs)
	}
	if per := measureBytesPerOp(20, roundTrip); per > maxBytesPerOp {
		t.Errorf("1 MB read round trip: %d bytes allocated/op", per)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	a := GetBuffer(100 << 10)
	backing := &a[:cap(a)][cap(a)-1]
	PutBuffer(a)
	b := GetBuffer(90 << 10) // smaller, same bin: must reuse
	if &b[:cap(b)][cap(b)-1] != backing {
		t.Error("pool did not reuse a same-bin buffer")
	}
	PutBuffer(b)

	// A subslice release (as the transport does for response payloads)
	// must keep the buffer findable for payload-sized requests.
	c := GetBuffer(128 << 10)
	view := c[4:] // what a decoded ReadResponse.Data aliases
	PutBuffer(view)
	d := GetBuffer(100 << 10)
	if cap(d) != cap(view) {
		t.Errorf("subslice-released buffer not reused: got cap %d, want %d", cap(d), cap(view))
	}

	// Small and nil releases are no-ops.
	PutBuffer(nil)
	PutBuffer(make([]byte, 16))
	if got := GetBuffer(0); got != nil {
		t.Errorf("GetBuffer(0) = %v, want nil", got)
	}
}

// A small request must not be handed a pooled fragment-sized buffer: a
// 4 KB read that escapes into a block cache would pin the whole 2 MB
// array, and the next fragment gather would allocate a fresh one.
func TestBufferPoolSmallRequestSkipsLargeBins(t *testing.T) {
	PutBuffer(make([]byte, 2<<20))
	const small = 4<<10 + 40 // a 4 KB read response frame body
	if p := GetBuffer(small); cap(p) >= 4*small {
		t.Errorf("GetBuffer(%d) after PutBuffer(2 MB): cap %d, want < %d", small, cap(p), 4*small)
	}
}
