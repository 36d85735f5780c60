package server

import (
	"testing"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

func encodeReq(msg wire.Message) []byte {
	e := wire.NewEncoder(64)
	msg.Encode(e)
	return e.Bytes()
}

func handlerStore(t *testing.T) *Store {
	t.Helper()
	d := disk.NewMemDisk(1 << 20)
	s, err := Format(d, Config{FragmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHandleFullDispatch(t *testing.T) {
	s := handlerStore(t)
	fid := wire.MakeFID(1, 0)

	check := func(op wire.Op, req wire.Message, want wire.Status) wire.Message {
		t.Helper()
		status, msg := s.Handle(1, op, encodeReq(req))
		if status != want {
			t.Fatalf("%v -> %v (%s), want %v", op, status, ErrText(msg), want)
		}
		return msg
	}

	check(wire.OpPing, &wire.PingRequest{}, wire.StatusOK)
	check(wire.OpStore, &wire.StoreRequest{FID: fid, Mark: true, Data: []byte("abc")}, wire.StatusOK)
	check(wire.OpStore, &wire.StoreRequest{FID: fid, Data: []byte("dup")}, wire.StatusExists)
	check(wire.OpStore, &wire.StoreRequest{FID: wire.MakeFID(1, 1), Data: make([]byte, 9000)}, wire.StatusBadRequest)

	msg := check(wire.OpRead, &wire.ReadRequest{FID: fid, Off: 0, Len: 3}, wire.StatusOK)
	var rr wire.ReadResponse
	if err := rr.Decode(wire.NewDecoder(encodeReq(msg))); err != nil || string(rr.Data) != "abc" {
		t.Fatalf("read = (%q,%v)", rr.Data, err)
	}
	check(wire.OpRead, &wire.ReadRequest{FID: fid, Off: 2, Len: 5}, wire.StatusBadRequest)
	check(wire.OpRead, &wire.ReadRequest{FID: wire.MakeFID(1, 9)}, wire.StatusNotFound)

	check(wire.OpHasFragment, &wire.HasFragmentRequest{FID: fid}, wire.StatusOK)
	check(wire.OpLastMarked, &wire.LastMarkedRequest{Client: 1}, wire.StatusOK)
	check(wire.OpListFIDs, &wire.ListFIDsRequest{Client: 1}, wire.StatusOK)
	check(wire.OpPrealloc, &wire.PreallocRequest{FID: wire.MakeFID(1, 5)}, wire.StatusOK)
	check(wire.OpPrealloc, &wire.PreallocRequest{FID: wire.MakeFID(1, 5)}, wire.StatusExists)
	check(wire.OpStat, &wire.StatRequest{}, wire.StatusOK)

	aclMsg := check(wire.OpACLCreate, &wire.ACLCreateRequest{Members: []wire.ClientID{1}}, wire.StatusOK)
	var ar wire.ACLCreateResponse
	if err := ar.Decode(wire.NewDecoder(encodeReq(aclMsg))); err != nil {
		t.Fatal(err)
	}
	check(wire.OpACLModify, &wire.ACLModifyRequest{AID: ar.AID, Add: []wire.ClientID{2}}, wire.StatusOK)
	check(wire.OpACLModify, &wire.ACLModifyRequest{AID: 999}, wire.StatusNotFound)
	check(wire.OpACLDelete, &wire.ACLDeleteRequest{AID: ar.AID}, wire.StatusOK)
	check(wire.OpACLDelete, &wire.ACLDeleteRequest{AID: ar.AID}, wire.StatusNotFound)

	check(wire.OpDelete, &wire.DeleteRequest{FID: fid}, wire.StatusOK)
	check(wire.OpDelete, &wire.DeleteRequest{FID: fid}, wire.StatusNotFound)

	// Unknown op and malformed bodies.
	if status, _ := s.Handle(1, wire.Op(99), nil); status != wire.StatusBadRequest {
		t.Fatalf("unknown op = %v", status)
	}
	for _, op := range []wire.Op{
		wire.OpStore, wire.OpRead, wire.OpDelete, wire.OpPrealloc,
		wire.OpLastMarked, wire.OpHasFragment, wire.OpListFIDs,
		wire.OpACLCreate, wire.OpACLModify, wire.OpACLDelete,
	} {
		if status, _ := s.Handle(1, op, []byte{1}); status != wire.StatusBadRequest {
			t.Fatalf("malformed %v = %v", op, status)
		}
	}
}

func TestHandleAccessDenied(t *testing.T) {
	s := handlerStore(t)
	aid := s.ACLs().Create([]wire.ClientID{1})
	fid := wire.MakeFID(1, 0)
	status, _ := s.Handle(1, wire.OpStore, encodeReq(&wire.StoreRequest{
		FID:    fid,
		Data:   make([]byte, 100),
		Ranges: []wire.ACLRange{{Off: 0, Len: 100, AID: aid}},
	}))
	if status != wire.StatusOK {
		t.Fatalf("store = %v", status)
	}
	status, msg := s.Handle(2, wire.OpRead, encodeReq(&wire.ReadRequest{FID: fid, Off: 0, Len: 10}))
	if status != wire.StatusAccess {
		t.Fatalf("stranger read = %v (%s)", status, ErrText(msg))
	}
}

func TestHandleNoSpace(t *testing.T) {
	s := handlerStore(t)
	full := make([]byte, s.FragmentSize())
	total := int(s.Stats().TotalSlots)
	for i := 0; i < total; i++ {
		if status, _ := s.Handle(1, wire.OpStore, encodeReq(&wire.StoreRequest{FID: wire.MakeFID(1, uint64(i)), Data: full})); status != wire.StatusOK {
			t.Fatalf("fill store %d failed", i)
		}
	}
	status, _ := s.Handle(1, wire.OpStore, encodeReq(&wire.StoreRequest{FID: wire.MakeFID(1, 999), Data: []byte("x")}))
	if status != wire.StatusNoSpace {
		t.Fatalf("full store = %v", status)
	}
}

func TestFragmentSizeAccessor(t *testing.T) {
	s := handlerStore(t)
	if s.FragmentSize() != 4096 {
		t.Fatalf("FragmentSize = %d", s.FragmentSize())
	}
}
