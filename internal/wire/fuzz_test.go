package wire

import (
	"bytes"
	"testing"
)

func FuzzReadRequestFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteRequest(&buf, OpStore, 7, 1, &StoreRequest{FID: MakeFID(1, 2), Data: []byte("x")})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, frameHdrSize+4))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequestFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything framed must decode (or fail) without panicking.
		var store StoreRequest
		_ = store.Decode(NewDecoder(req.Body))
		var read ReadRequest
		_ = read.Decode(NewDecoder(req.Body))
		var acl ACLModifyRequest
		_ = acl.Decode(NewDecoder(req.Body))
	})
}

// FuzzResponseStreamDemux models what the transport's demultiplexer
// consumes: a stream of response frames whose request IDs arrive in an
// arbitrary (fuzz-chosen) order, with duplicates, interleaved payload
// sizes, and optional trailing junk. Every well-formed frame must come
// back with the body matching its ID, and the stream must never panic.
func FuzzResponseStreamDemux(f *testing.F) {
	f.Add(uint64(3), []byte{2, 0, 1}, false)
	f.Add(uint64(1000), []byte{5, 5, 0, 3, 1, 4, 2}, true)
	f.Add(uint64(0), []byte{0}, false)
	f.Fuzz(func(t *testing.T, seed uint64, order []byte, junk bool) {
		if len(order) == 0 || len(order) > 64 {
			return
		}
		// bodyFor derives a distinct, checkable payload from each ID.
		bodyFor := func(id uint64) []byte {
			n := int(id % 257)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(id + uint64(i))
			}
			return b
		}
		var stream bytes.Buffer
		want := make([]uint64, 0, len(order))
		for _, o := range order {
			id := seed + uint64(o%8) // small range forces duplicates
			want = append(want, id)
			if err := WriteResponse(&stream, OpRead, id, &ReadResponse{Data: bodyFor(id)}); err != nil {
				t.Fatal(err)
			}
		}
		if junk {
			stream.Write([]byte("\x00\xffnot a frame"))
		}
		r := bytes.NewReader(stream.Bytes())
		for i, id := range want {
			rsp, err := ReadResponseFrame(r)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if rsp.ID != id {
				t.Fatalf("frame %d: id %d, want %d (frames must arrive in write order)", i, rsp.ID, id)
			}
			var rr ReadResponse
			if err := rr.Decode(NewDecoder(rsp.Body)); err != nil {
				t.Fatalf("frame %d: decode: %v", i, err)
			}
			if !bytes.Equal(rr.Data, bodyFor(id)) {
				t.Fatalf("frame %d: body does not match id %d", i, id)
			}
			PutBuffer(rsp.Body)
		}
		if _, err := ReadResponseFrame(r); err == nil {
			t.Fatal("read past the last frame succeeded")
		}
	})
}

// FuzzFrameRoundTrip drives encode→frame→decode for every message type
// in the protocol, with fuzz-chosen field values. The vectored
// PayloadMessage path (StoreRequest and ReadResponse ship their bulk
// payload out of band, spliced onto the frame tail) must be
// byte-identical to inline encoding, so the round trip also proves the
// splice. Messages are compared by re-encoding the decoded form: the
// codec's nil-vs-empty slice distinction is not wire-visible and must
// not fail the trip.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), uint64(3), uint32(4), []byte("payload"), true)
	f.Add(uint64(0), uint32(0), uint64(0), uint32(0), []byte{}, false)
	f.Add(^uint64(0), ^uint32(0), ^uint64(0), uint32(9), bytes.Repeat([]byte{0xa5}, 300), true)
	f.Fuzz(func(t *testing.T, id uint64, client uint32, fid uint64, n uint32, data []byte, mark bool) {
		if len(data) > MaxFrameSize/2 {
			return
		}
		// Derive bounded slice fields from the scalar inputs.
		members := make([]ClientID, int(n%5))
		for i := range members {
			members[i] = ClientID(client + uint32(i))
		}
		ranges := make([]ACLRange, int(n%3))
		for i := range ranges {
			ranges[i] = ACLRange{Off: n + uint32(i), Len: n ^ uint32(i), AID: AID(i)}
		}
		fids := make([]FID, int(n%7))
		for i := range fids {
			fids[i] = FID(fid + uint64(i))
		}
		tenants := make([]TenantStat, int(n%4))
		for i := range tenants {
			tenants[i] = TenantStat{
				Client: ClientID(client + uint32(i)), Weight: n + uint32(i),
				Ops: id + uint64(i), Bytes: id ^ uint64(i), Sheds: id % (uint64(i) + 7),
				Queued: n ^ uint32(i), QueuedBytes: fid + uint64(i),
				P50Micros: id + 10, P99Micros: id + 20,
			}
		}

		encoded := func(m Message) []byte {
			e := NewEncoder(64 + len(data))
			m.Encode(e)
			return e.Bytes()
		}
		// fresh maps each message to a zero instance to decode into.
		fresh := func(m Message) Message {
			switch m.(type) {
			case *PingRequest:
				return &PingRequest{}
			case *StoreRequest:
				return &StoreRequest{}
			case *ReadRequest:
				return &ReadRequest{}
			case *DeleteRequest:
				return &DeleteRequest{}
			case *PreallocRequest:
				return &PreallocRequest{}
			case *LastMarkedRequest:
				return &LastMarkedRequest{}
			case *HasFragmentRequest:
				return &HasFragmentRequest{}
			case *ListFIDsRequest:
				return &ListFIDsRequest{}
			case *ACLCreateRequest:
				return &ACLCreateRequest{}
			case *ACLModifyRequest:
				return &ACLModifyRequest{}
			case *ACLDeleteRequest:
				return &ACLDeleteRequest{}
			case *StatRequest:
				return &StatRequest{}
			case *GenericResponse:
				return &GenericResponse{}
			case *ReadResponse:
				return &ReadResponse{}
			case *LastMarkedResponse:
				return &LastMarkedResponse{}
			case *HasFragmentResponse:
				return &HasFragmentResponse{}
			case *ListFIDsResponse:
				return &ListFIDsResponse{}
			case *ACLCreateResponse:
				return &ACLCreateResponse{}
			case *StatResponse:
				return &StatResponse{}
			}
			t.Fatalf("fresh: unknown message type %T", m)
			return nil
		}

		requests := []struct {
			op  Op
			msg Message
		}{
			{OpPing, &PingRequest{}},
			{OpStore, &StoreRequest{FID: FID(fid), Mark: mark, Ranges: ranges, Data: data}},
			{OpRead, &ReadRequest{FID: FID(fid), Off: n, Len: n + 1}},
			{OpDelete, &DeleteRequest{FID: FID(fid)}},
			{OpPrealloc, &PreallocRequest{FID: FID(fid)}},
			{OpLastMarked, &LastMarkedRequest{Client: ClientID(client)}},
			{OpHasFragment, &HasFragmentRequest{FID: FID(fid)}},
			{OpListFIDs, &ListFIDsRequest{Client: ClientID(client)}},
			{OpACLCreate, &ACLCreateRequest{Members: members}},
			{OpACLModify, &ACLModifyRequest{AID: AID(n), Add: members, Remove: members}},
			{OpACLDelete, &ACLDeleteRequest{AID: AID(n)}},
			{OpStat, &StatRequest{}},
		}
		for _, rq := range requests {
			var buf bytes.Buffer
			if err := WriteRequest(&buf, rq.op, id, ClientID(client), rq.msg); err != nil {
				t.Fatalf("%T: write: %v", rq.msg, err)
			}
			frame, err := ReadRequestFrame(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%T: read frame: %v", rq.msg, err)
			}
			if frame.Op != rq.op || frame.ID != id || frame.Client != ClientID(client) {
				t.Fatalf("%T: frame header (%v,%d,%d) != (%v,%d,%d)",
					rq.msg, frame.Op, frame.ID, frame.Client, rq.op, id, client)
			}
			got := fresh(rq.msg)
			if err := got.Decode(NewDecoder(frame.Body)); err != nil {
				t.Fatalf("%T: decode: %v", rq.msg, err)
			}
			if !bytes.Equal(encoded(got), encoded(rq.msg)) {
				t.Fatalf("%T: round trip changed the message", rq.msg)
			}
			PutBuffer(frame.Body)
		}

		responses := []struct {
			op  Op
			msg Message
		}{
			{OpPing, &GenericResponse{}},
			{OpRead, &ReadResponse{Data: data}},
			{OpLastMarked, &LastMarkedResponse{FID: FID(fid), Found: mark}},
			{OpHasFragment, &HasFragmentResponse{Found: mark, Size: n}},
			{OpListFIDs, &ListFIDsResponse{FIDs: fids}},
			{OpACLCreate, &ACLCreateResponse{AID: AID(n)}},
			{OpStat, &StatResponse{
				FragmentSize: n, TotalSlots: n + 1, FreeSlots: n + 2, Fragments: n + 3, UnitsHeld: n + 4,
				Stores: id, SyncRequests: id + 1, Syncs: id + 2, StoreNanos: id + 3,
				Tenants: tenants,
			}},
		}
		for _, rs := range responses {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, rs.op, id, rs.msg); err != nil {
				t.Fatalf("%T: write: %v", rs.msg, err)
			}
			frame, err := ReadResponseFrame(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%T: read frame: %v", rs.msg, err)
			}
			if frame.Op != rs.op || frame.ID != id || frame.Status != StatusOK {
				t.Fatalf("%T: frame header (%v,%d,%v) != (%v,%d,OK)",
					rs.msg, frame.Op, frame.ID, frame.Status, rs.op, id)
			}
			got := fresh(rs.msg)
			if err := got.Decode(NewDecoder(frame.Body)); err != nil {
				t.Fatalf("%T: decode: %v", rs.msg, err)
			}
			if !bytes.Equal(encoded(got), encoded(rs.msg)) {
				t.Fatalf("%T: round trip changed the message", rs.msg)
			}
			PutBuffer(frame.Body)
		}

		// Error responses round-trip status and message text.
		var ebuf bytes.Buffer
		errText := string(data)
		if len(errText) > 256 {
			errText = errText[:256]
		}
		if err := WriteErrorResponse(&ebuf, OpStore, id, StatusNoSpace, errText); err != nil {
			t.Fatalf("write error response: %v", err)
		}
		frame, err := ReadResponseFrame(bytes.NewReader(ebuf.Bytes()))
		if err != nil {
			t.Fatalf("read error frame: %v", err)
		}
		ferr := frame.Err()
		if !IsStatus(ferr, StatusNoSpace) {
			t.Fatalf("error round trip lost the status: %v", ferr)
		}
		PutBuffer(frame.Body)

		// A busy shed travels as an error frame too: the retryable
		// StatusBusy must survive the trip (the client's backoff logic
		// keys on exactly this status).
		var bbuf bytes.Buffer
		if err := WriteErrorResponse(&bbuf, OpStore, id, StatusBusy, errText); err != nil {
			t.Fatalf("write busy response: %v", err)
		}
		bframe, err := ReadResponseFrame(bytes.NewReader(bbuf.Bytes()))
		if err != nil {
			t.Fatalf("read busy frame: %v", err)
		}
		if berr := bframe.Err(); !IsStatus(berr, StatusBusy) {
			t.Fatalf("busy round trip lost the status: %v", berr)
		}
		PutBuffer(bframe.Body)
	})
}

func FuzzReadResponseFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteResponse(&buf, OpRead, 7, &ReadResponse{Data: []byte("abc")})
	f.Add(buf.Bytes())
	var ebuf bytes.Buffer
	_ = WriteErrorResponse(&ebuf, OpStore, 1, StatusNoSpace, "full")
	f.Add(ebuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		rsp, err := ReadResponseFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = rsp.Err()
		var rr ReadResponse
		_ = rr.Decode(NewDecoder(rsp.Body))
		var lm LastMarkedResponse
		_ = lm.Decode(NewDecoder(rsp.Body))
		var ls ListFIDsResponse
		_ = ls.Decode(NewDecoder(rsp.Body))
	})
}
