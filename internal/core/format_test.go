package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"swarm/internal/erasure"
	"swarm/internal/wire"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Kind:     FragData,
		Width:    4,
		Index:    2,
		FID:      wire.MakeFID(3, 42),
		StripeID: 10,
		DataLen:  12345,
	}
	h.Group[0], h.Group[1], h.Group[2], h.Group[3] = 5, 6, 7, 8
	h.MemberLens[1] = 99
	buf := EncodeHeader(&h)
	if buf[4] != fragVersion {
		t.Fatalf("legacy header encoded as version %d", buf[4])
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Decode normalizes the zero-value legacy geometry to explicit XOR m=1.
	h.Codec, h.NumParity = uint8(erasure.KindXOR), 1
	if got != h {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, h)
	}

	// RS geometry round-trips through a version-2 header.
	h.Codec, h.NumParity = uint8(erasure.KindRS), 2
	buf = EncodeHeader(&h)
	if buf[4] != fragVersion2 {
		t.Fatalf("rs header encoded as version %d", buf[4])
	}
	got, err = DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("v2 roundtrip:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderValidation(t *testing.T) {
	h := Header{Kind: FragData, Width: 2, Index: 0, FID: 1}
	buf := EncodeHeader(&h)

	short := buf[:HeaderSize-1]
	if _, err := DecodeHeader(short); !errors.Is(err, ErrBadFragment) {
		t.Errorf("short header: %v", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := DecodeHeader(bad); !errors.Is(err, ErrBadFragment) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[20] ^= 0xFF // corrupt a field: CRC must catch it
	if _, err := DecodeHeader(bad); !errors.Is(err, ErrBadFragment) {
		t.Errorf("bad crc: %v", err)
	}

	// Width/index validation (re-encode with bad geometry).
	h2 := Header{Kind: FragData, Width: MaxWidth + 1, Index: 0}
	if _, err := DecodeHeader(EncodeHeader(&h2)); !errors.Is(err, ErrBadFragment) {
		t.Errorf("oversized width: %v", err)
	}
	h3 := Header{Kind: FragData, Width: 2, Index: 2}
	if _, err := DecodeHeader(EncodeHeader(&h3)); !errors.Is(err, ErrBadFragment) {
		t.Errorf("index >= width: %v", err)
	}
	h4 := Header{Kind: 9, Width: 2, Index: 0}
	if _, err := DecodeHeader(EncodeHeader(&h4)); !errors.Is(err, ErrBadFragment) {
		t.Errorf("bad kind: %v", err)
	}
}

func TestHeaderStripeNavigation(t *testing.T) {
	h := Header{Kind: FragData, Width: 4, Index: 2, FID: wire.MakeFID(1, 10), StripeID: 2}
	if h.BaseSeq() != 8 {
		t.Fatalf("BaseSeq = %d", h.BaseSeq())
	}
	if got := h.MemberFID(3); got != wire.MakeFID(1, 11) {
		t.Fatalf("MemberFID(3) = %v", got)
	}
}

func TestHeaderEpochRoundTrip(t *testing.T) {
	h := Header{
		Kind:     FragData,
		Width:    4,
		Index:    1,
		FID:      wire.MakeFID(3, 9),
		StripeID: 2,
		DataLen:  100,
	}
	// Epoch 0 with legacy geometry stays a version-1 header,
	// byte-identical to the pre-elasticity format.
	if buf := EncodeHeader(&h); buf[4] != fragVersion {
		t.Fatalf("epoch-0 legacy header encoded as version %d", buf[4])
	}

	// A nonzero epoch promotes even the legacy XOR geometry to v2 and
	// round-trips exactly.
	h.Epoch = 5
	buf := EncodeHeader(&h)
	if buf[4] != fragVersion2 {
		t.Fatalf("epoch-5 header encoded as version %d", buf[4])
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	h.Codec, h.NumParity = uint8(erasure.KindXOR), 1
	if got != h {
		t.Fatalf("epoch roundtrip:\n got %+v\nwant %+v", got, h)
	}

	// A parity-free log at a nonzero epoch leaves the geometry bytes
	// zero; decode normalizes them exactly like a version-1 header.
	pf := Header{Kind: FragData, Width: 1, Index: 0, FID: wire.MakeFID(3, 0), Epoch: 3}
	got, err = DecodeHeader(EncodeHeader(&pf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Codec != uint8(erasure.KindXOR) || got.NumParity != 1 {
		t.Fatalf("parity-free v2 decode = %+v", got)
	}

	// RS geometry and epoch coexist.
	rs := Header{Kind: FragParity, Width: 6, Index: 2, FID: wire.MakeFID(1, 14),
		StripeID: 2, Codec: uint8(erasure.KindRS), NumParity: 2, Epoch: 9}
	got, err = DecodeHeader(EncodeHeader(&rs))
	if err != nil {
		t.Fatal(err)
	}
	if got != rs {
		t.Fatalf("rs epoch roundtrip:\n got %+v\nwant %+v", got, rs)
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(kindParity bool, width, index uint8, fid, stripe uint64, dataLen uint32) bool {
		w := width%MaxWidth + 1
		h := Header{
			Kind:     FragData,
			Width:    w,
			Index:    index % w,
			FID:      wire.FID(fid),
			StripeID: stripe,
			DataLen:  dataLen,
			// Decode normalizes legacy zero values to these, so set them
			// for the == comparison; odd dataLens exercise version 2.
			Codec:     uint8(erasure.KindXOR),
			NumParity: 1,
		}
		if kindParity {
			h.Kind = FragParity
		}
		if w >= 3 && dataLen%2 == 1 {
			h.Codec = uint8(erasure.KindRS)
			h.NumParity = uint8(dataLen%uint32(w-1)) + 1
		}
		if dataLen%3 == 0 {
			h.Epoch = dataLen / 3 // exercises v2 promotion of XOR m=1
		}
		for i := 0; i < int(w); i++ {
			h.Group[i] = wire.ServerID(i * 3)
			h.MemberLens[i] = dataLen / uint32(i+1)
		}
		got, err := DecodeHeader(EncodeHeader(&h))
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryIteration(t *testing.T) {
	buf := make([]byte, 1024)
	off := 0
	off = AppendEntry(buf, off, EntryBlock, 5, []byte("hello"))
	off = AppendEntry(buf, off, EntryRecord, 7, []byte("rec"))
	off = AppendEntry(buf, off, EntryDelete, 5, nil)

	var got []Entry
	if err := IterEntries(buf[:off], func(e Entry) bool {
		got = append(got, Entry{Kind: e.Kind, Svc: e.Svc, Off: e.Off, Payload: append([]byte(nil), e.Payload...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d entries", len(got))
	}
	if got[0].Kind != EntryBlock || got[0].Svc != 5 || string(got[0].Payload) != "hello" || got[0].Off != 0 {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[1].Kind != EntryRecord || got[1].Off != uint32(EntrySize(5)) {
		t.Fatalf("entry 1 = %+v", got[1])
	}
	if got[2].Kind != EntryDelete || len(got[2].Payload) != 0 {
		t.Fatalf("entry 2 = %+v", got[2])
	}
}

func TestEntryIterationStopsEarly(t *testing.T) {
	buf := make([]byte, 256)
	off := AppendEntry(buf, 0, EntryBlock, 1, []byte("a"))
	off = AppendEntry(buf, off, EntryBlock, 1, []byte("b"))
	count := 0
	if err := IterEntries(buf[:off], func(Entry) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("visited %d entries", count)
	}
}

func TestEntryIterationMalformed(t *testing.T) {
	// Truncated header.
	if err := IterEntries([]byte{1, 2, 3}, func(Entry) bool { return true }); !errors.Is(err, ErrBadFragment) {
		t.Errorf("truncated header: %v", err)
	}
	// Length running past the payload.
	buf := make([]byte, 32)
	AppendEntry(buf, 0, EntryBlock, 1, bytes.Repeat([]byte{9}, 25))
	if err := IterEntries(buf[:16], func(Entry) bool { return true }); !errors.Is(err, ErrBadFragment) {
		t.Errorf("truncated payload: %v", err)
	}
	// Unknown kind.
	buf2 := make([]byte, 16)
	AppendEntry(buf2, 0, EntryKind(99), 1, nil)
	if err := IterEntries(buf2[:EntryHdrSize], func(Entry) bool { return true }); !errors.Is(err, ErrBadFragment) {
		t.Errorf("unknown kind: %v", err)
	}
}

func TestCreateRecordRoundTrip(t *testing.T) {
	r := CreateRecord{Addr: BlockAddr{FID: wire.MakeFID(1, 2), Off: 99}, Len: 4096, Hint: []byte("inode 7 block 3")}
	got, err := DecodeCreateRecord(EncodeCreateRecord(&r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != r.Addr || got.Len != r.Len || !bytes.Equal(got.Hint, r.Hint) {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, err := DecodeCreateRecord([]byte{1}); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("short create record: %v", err)
	}
}

func TestDeleteRecordRoundTrip(t *testing.T) {
	r := DeleteRecord{Addr: BlockAddr{FID: wire.MakeFID(9, 1), Off: 3}, Len: 512}
	got, err := DecodeDeleteRecord(EncodeDeleteRecord(&r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("roundtrip = %+v", got)
	}
	if _, err := DecodeDeleteRecord(nil); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("empty delete record: %v", err)
	}
}

func TestCheckpointRecordRoundTrip(t *testing.T) {
	r := CheckpointRecord{
		Directory: map[ServiceID]BlockAddr{
			3: {FID: wire.MakeFID(1, 5), Off: 10},
			1: {FID: wire.MakeFID(1, 2), Off: 0},
		},
		Payload: []byte("service state"),
		Usage:   []byte("usage bytes"),
	}
	got, err := DecodeCheckpointRecord(EncodeCheckpointRecord(&r))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Directory) != 2 || got.Directory[3] != r.Directory[3] || got.Directory[1] != r.Directory[1] {
		t.Fatalf("directory = %+v", got.Directory)
	}
	if !bytes.Equal(got.Payload, r.Payload) || !bytes.Equal(got.Usage, r.Usage) {
		t.Fatalf("payloads = %q %q", got.Payload, got.Usage)
	}
}

func TestCheckpointRecordDeterministicEncoding(t *testing.T) {
	r := CheckpointRecord{Directory: map[ServiceID]BlockAddr{5: {}, 2: {}, 9: {}, 1: {}}}
	a := EncodeCheckpointRecord(&r)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, EncodeCheckpointRecord(&r)) {
			t.Fatal("non-deterministic encoding")
		}
	}
}

// Property: reconstructing any member of a random stripe from the others
// plus parity yields the original payload.
func TestQuickParityReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(widthSeed uint8, missSeed uint8, sizeSeed uint16) bool {
		width := int(widthSeed)%6 + 2 // 2..7 members incl parity
		payloadSize := int(sizeSeed)%512 + 64
		nData := width - 1
		data := make([][]byte, nData)
		code, err := erasure.New(erasure.KindXOR, nData, 1)
		if err != nil {
			t.Fatal(err)
		}
		acc := newParityAccum(code, payloadSize)
		for i := 0; i < nData; i++ {
			n := rng.Intn(payloadSize + 1)
			data[i] = make([]byte, n)
			rng.Read(data[i])
			acc.add(i, i, data[i])
		}
		miss := int(missSeed) % nData
		shards := append(append([][]byte{}, data...), acc.bufs[0])
		shards[miss] = nil
		got, err := code.Reconstruct(shards, miss, payloadSize)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(got[:len(data[miss])], data[miss])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUsageTableAccounting(t *testing.T) {
	u := NewUsageTable()
	u.AddBlock(1, 100)
	u.AddBlock(1, 50)
	u.AddRecord(1, 10)
	u.DeleteBlock(1, 50)
	got, ok := u.Get(1)
	if !ok {
		t.Fatal("stripe missing")
	}
	if got.Live != 100 || got.Total != 160 {
		t.Fatalf("usage = %+v", got)
	}
	if util := got.Utilization(); util < 0.62 || util > 0.63 {
		t.Fatalf("utilization = %v", util)
	}
	u.FragmentSealed(1, false)
	u.FragmentSealed(1, true)
	got, _ = u.Get(1)
	if got.Fragments != 2 || !got.Closed {
		t.Fatalf("after seals = %+v", got)
	}
	u.Drop(1)
	if _, ok := u.Get(1); ok {
		t.Fatal("dropped stripe still present")
	}
}

func TestUsageTableLiveNeverNegative(t *testing.T) {
	u := NewUsageTable()
	u.AddBlock(1, 10)
	u.DeleteBlock(1, 100)
	got, _ := u.Get(1)
	if got.Live != 0 {
		t.Fatalf("live = %d", got.Live)
	}
}

func TestUsageTableEncodeDecode(t *testing.T) {
	u := NewUsageTable()
	u.AddBlock(1, 100)
	u.AddRecord(2, 30)
	u.FragmentSealed(2, true)
	u.DeleteBlock(1, 40)

	got, err := DecodeUsageTable(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	a, b := u.Snapshot(), got.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("sizes %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("stripe %d: %+v vs %+v", k, v, b[k])
		}
	}
	if _, err := DecodeUsageTable([]byte{1, 2}); err == nil {
		t.Fatal("garbage decoded")
	}
	if u.Stripes()[0] != 1 || u.Stripes()[1] != 2 {
		t.Fatalf("stripes = %v", u.Stripes())
	}
}

func TestPosOrdering(t *testing.T) {
	a := Pos{Seq: 1, Off: 100}
	b := Pos{Seq: 2, Off: 0}
	c := Pos{Seq: 1, Off: 200}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("cross-fragment ordering wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("intra-fragment ordering wrong")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity violated")
	}
}

func TestEntryKindStrings(t *testing.T) {
	for k := EntryBlock; k <= EntryRecord; k++ {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	if EntryKind(77).String() != "entry(77)" {
		t.Error("unknown kind string")
	}
}
