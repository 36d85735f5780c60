package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFIDComposition(t *testing.T) {
	tests := []struct {
		client ClientID
		seq    uint64
	}{
		{0, 0},
		{1, 0},
		{1, 1},
		{7, 123456},
		{0xFFFFFF, 1<<40 - 1},
	}
	for _, tt := range tests {
		f := MakeFID(tt.client, tt.seq)
		if f.Client() != tt.client {
			t.Errorf("MakeFID(%d,%d).Client() = %d", tt.client, tt.seq, f.Client())
		}
		if f.Seq() != tt.seq {
			t.Errorf("MakeFID(%d,%d).Seq() = %d", tt.client, tt.seq, f.Seq())
		}
	}
}

func TestFIDSeqMasksOverflow(t *testing.T) {
	f := MakeFID(2, 1<<40+5) // seq wraps into the masked range
	if f.Client() != 2 {
		t.Fatalf("client corrupted by seq overflow: %d", f.Client())
	}
	if f.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", f.Seq())
	}
}

func TestFIDString(t *testing.T) {
	if s := MakeFID(3, 42).String(); s != "3/42" {
		t.Fatalf("String() = %q", s)
	}
}

func TestStatusAndOpStrings(t *testing.T) {
	for s := StatusOK; s <= StatusInternal; s++ {
		if s.String() == "" {
			t.Errorf("empty string for status %d", s)
		}
	}
	if got := Status(200).String(); got != "status(200)" {
		t.Errorf("unknown status = %q", got)
	}
	for o := OpPing; o <= OpStat; o++ {
		if o.String() == "" {
			t.Errorf("empty string for op %d", o)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("unknown op = %q", got)
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.U8(0xAB)
	e.U16(0xCDEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0102030405060708)
	e.Bool(true)
	e.Bool(false)
	e.Bytes32([]byte("payload"))
	e.String32("str")

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U16(); v != 0xCDEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool roundtrip failed")
	}
	if v := d.Bytes32(); !bytes.Equal(v, []byte("payload")) {
		t.Errorf("Bytes32 = %q", v)
	}
	if v := d.String32(); v != "str" {
		t.Errorf("String32 = %q", v)
	}
	if d.Err() != nil {
		t.Errorf("decode err: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U32()
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", d.Err())
	}
	// Subsequent reads keep returning zero values, not panicking.
	if v := d.U64(); v != 0 {
		t.Fatalf("U64 after error = %d", v)
	}
}

func TestDecoderRejectsHugeSlice(t *testing.T) {
	e := NewEncoder(0)
	e.U32(maxSlice + 1)
	d := NewDecoder(e.Bytes())
	_ = d.Bytes32()
	if !errors.Is(d.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", d.Err())
	}
}

// roundTrip encodes msg and decodes it into out (same concrete type).
func roundTrip(t *testing.T, msg, out Message) {
	t.Helper()
	e := NewEncoder(0)
	msg.Encode(e)
	if err := out.Decode(NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if !reflect.DeepEqual(normalize(msg), normalize(out)) {
		t.Fatalf("roundtrip %T:\n got %+v\nwant %+v", msg, out, msg)
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *StoreRequest:
		if len(v.Ranges) == 0 {
			v.Ranges = nil
		}
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *ACLCreateRequest:
		if len(v.Members) == 0 {
			v.Members = nil
		}
	case *ACLModifyRequest:
		if len(v.Add) == 0 {
			v.Add = nil
		}
		if len(v.Remove) == 0 {
			v.Remove = nil
		}
	case *ListFIDsResponse:
		if len(v.FIDs) == 0 {
			v.FIDs = nil
		}
	case *ReadResponse:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	}
	return m
}

func TestMessageRoundTrips(t *testing.T) {
	roundTrip(t, &PingRequest{}, &PingRequest{})
	roundTrip(t, &StoreRequest{
		FID:    MakeFID(3, 9),
		Mark:   true,
		Ranges: []ACLRange{{Off: 0, Len: 512, AID: 7}, {Off: 512, Len: 128, AID: 9}},
		Data:   []byte("fragment-bytes"),
	}, &StoreRequest{})
	roundTrip(t, &ReadRequest{FID: MakeFID(1, 2), Off: 100, Len: 4096}, &ReadRequest{})
	roundTrip(t, &DeleteRequest{FID: MakeFID(2, 5)}, &DeleteRequest{})
	roundTrip(t, &PreallocRequest{FID: MakeFID(2, 6)}, &PreallocRequest{})
	roundTrip(t, &LastMarkedRequest{Client: 12}, &LastMarkedRequest{})
	roundTrip(t, &HasFragmentRequest{FID: MakeFID(9, 1)}, &HasFragmentRequest{})
	roundTrip(t, &ListFIDsRequest{Client: 3}, &ListFIDsRequest{})
	roundTrip(t, &ACLCreateRequest{Members: []ClientID{1, 2, 3}}, &ACLCreateRequest{})
	roundTrip(t, &ACLModifyRequest{AID: 4, Add: []ClientID{9}, Remove: []ClientID{1, 2}}, &ACLModifyRequest{})
	roundTrip(t, &ACLDeleteRequest{AID: 4}, &ACLDeleteRequest{})
	roundTrip(t, &StatRequest{}, &StatRequest{})
	roundTrip(t, &GenericResponse{}, &GenericResponse{})
	roundTrip(t, &ReadResponse{Data: []byte{1, 2, 3}}, &ReadResponse{})
	roundTrip(t, &LastMarkedResponse{FID: MakeFID(1, 77), Found: true}, &LastMarkedResponse{})
	roundTrip(t, &HasFragmentResponse{Found: true, Size: 999}, &HasFragmentResponse{})
	roundTrip(t, &ListFIDsResponse{FIDs: []FID{1, 2, 3}}, &ListFIDsResponse{})
	roundTrip(t, &ACLCreateResponse{AID: 42}, &ACLCreateResponse{})
	roundTrip(t, &StatResponse{FragmentSize: 1 << 20, TotalSlots: 100, FreeSlots: 50, Fragments: 50, UnitsHeld: 803}, &StatResponse{})
}

// Every field of StatResponse and of its TenantStats crosses the wire:
// each gets a distinct non-zero value that reaches past the low bytes of
// its width, so a counter left out of Encode or Decode, or coded at the
// wrong width, fails the compare. A field of a kind the filler does not
// know fails the test, so a new field cannot slip past it.
func TestStatResponseEveryFieldRoundTrips(t *testing.T) {
	var next uint64
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint32:
				next++
				f.SetUint(next<<24 | next)
			case reflect.Uint64:
				next++
				f.SetUint(next<<56 | next<<32 | next)
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 2, 2))
				fill(f.Index(0))
				fill(f.Index(1))
			default:
				t.Fatalf("%s.%s: no filler for kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var in StatResponse
	fill(reflect.ValueOf(&in).Elem())
	roundTrip(t, &in, &StatResponse{})
}

// Property: StoreRequest roundtrips for arbitrary contents.
func TestQuickStoreRequestRoundTrip(t *testing.T) {
	f := func(fid uint64, mark bool, data []byte, nRanges uint8) bool {
		msg := &StoreRequest{FID: FID(fid), Mark: mark, Data: data}
		for i := uint8(0); i < nRanges%8; i++ {
			msg.Ranges = append(msg.Ranges, ACLRange{Off: uint32(i) * 100, Len: 100, AID: AID(i)})
		}
		e := NewEncoder(0)
		msg.Encode(e)
		var out StoreRequest
		if err := out.Decode(NewDecoder(e.Bytes())); err != nil {
			return false
		}
		if out.FID != msg.FID || out.Mark != msg.Mark || !bytes.Equal(out.Data, msg.Data) {
			return false
		}
		if len(out.Ranges) != len(msg.Ranges) {
			return false
		}
		for i := range out.Ranges {
			if out.Ranges[i] != msg.Ranges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics.
func TestQuickDecodeGarbageNeverPanics(t *testing.T) {
	msgs := []func() Message{
		func() Message { return &StoreRequest{} },
		func() Message { return &ReadRequest{} },
		func() Message { return &ACLModifyRequest{} },
		func() Message { return &ListFIDsResponse{} },
		func() Message { return &StatResponse{} },
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		for _, mk := range msgs {
			_ = mk().Decode(NewDecoder(buf)) // must not panic
		}
	}
}

func TestFrameRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := &ReadRequest{FID: MakeFID(4, 2), Off: 16, Len: 4096}
	if err := WriteRequest(&buf, OpRead, 77, 4, msg); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequestFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpRead || req.ID != 77 || req.Client != 4 {
		t.Fatalf("header = %+v", req)
	}
	var out ReadRequest
	if err := out.Decode(NewDecoder(req.Body)); err != nil {
		t.Fatal(err)
	}
	if out != *msg {
		t.Fatalf("body = %+v", out)
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, OpRead, 5, &ReadResponse{Data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	rsp, err := ReadResponseFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Status != StatusOK || rsp.ID != 5 || rsp.Op != OpRead {
		t.Fatalf("rsp = %+v", rsp)
	}
	if rsp.Err() != nil {
		t.Fatalf("Err() = %v", rsp.Err())
	}
}

func TestFrameErrorResponse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteErrorResponse(&buf, OpStore, 9, StatusNoSpace, "disk full"); err != nil {
		t.Fatal(err)
	}
	rsp, err := ReadResponseFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rerr := rsp.Err()
	if rerr == nil {
		t.Fatal("expected error")
	}
	if !IsStatus(rerr, StatusNoSpace) {
		t.Fatalf("status of %v", rerr)
	}
	var se *StatusError
	if !errors.As(rerr, &se) || se.Msg != "disk full" {
		t.Fatalf("error = %v", rerr)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpPing, 1, 1, &PingRequest{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-5] ^= 0xFF // flip a bit inside the payload/CRC region
	_, err := ReadRequestFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadCRC) && !errors.Is(err, ErrShortBuffer) && err == nil {
		t.Fatalf("corrupted frame accepted: %v", err)
	}
}

func TestFrameBadMagic(t *testing.T) {
	raw := make([]byte, frameHdrSize+4)
	_, err := ReadRequestFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, OpPing, 1, 1, &PingRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponseFrame(&buf); err == nil {
		t.Fatal("request frame accepted as response")
	}
}

func TestStatusErrorMessage(t *testing.T) {
	e := &StatusError{Status: StatusNotFound}
	if e.Error() != "server: not found" {
		t.Fatalf("Error() = %q", e.Error())
	}
	e = &StatusError{Status: StatusAccess, Msg: "aid 5"}
	if e.Error() != "server: access denied: aid 5" {
		t.Fatalf("Error() = %q", e.Error())
	}
	if IsStatus(errors.New("x"), StatusOK) {
		t.Fatal("IsStatus matched plain error")
	}
}
