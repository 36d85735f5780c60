package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"swarm/internal/disk"
	"swarm/internal/wire"
)

// crcHeaderSize plays the role of the fragment header fragio's payload
// fetch skips: Read(fid, HeaderSize, DataLen) over a stored fragment of
// HeaderSize+DataLen bytes.
const crcHeaderSize = 256

func newSizedStore(t testing.TB, fragSize int, cacheBytes int64) *Store {
	t.Helper()
	d := disk.NewMemDisk(storeDiskBytes(fragSize, 2))
	s, err := Format(d, Config{FragmentSize: fragSize})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReadCache(cacheBytes, 0)
	return s
}

// encodeRead runs one read request through Handle and returns the
// encoded response frame, recycling the response's payload as the TCP
// front end does once the frame is written.
func encodeRead(s *Store, fid wire.FID, off, n uint32) ([]byte, error) {
	req := wire.NewEncoder(16)
	(&wire.ReadRequest{FID: fid, Off: off, Len: n}).Encode(req)
	status, msg := s.Handle(1, wire.OpRead, req.Bytes())
	if status != wire.StatusOK {
		return nil, fmt.Errorf("read [%d,+%d): status %v: %s", off, n, status, ErrText(msg))
	}
	var buf bytes.Buffer
	err := wire.WriteResponse(&buf, wire.OpRead, 1, msg)
	wire.PutBuffer(msg.(wire.PayloadMessage).Payload())
	return buf.Bytes(), err
}

func mustEncodeRead(t *testing.T, s *Store, fid wire.FID, off, n uint32) []byte {
	t.Helper()
	frame, err := encodeRead(s, fid, off, n)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func storeRandom(t testing.TB, s *Store, fid wire.FID, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(data)
	if err := s.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	return data
}

// Frames served from a cached extent, whose CRC may be derived from the
// extent's own checksum, must be byte-identical to frames the uncached
// path hashes in full — on the first read of the extent and after.
func TestCachedReadFramesMatchUncached(t *testing.T) {
	const size = 64 << 10
	fid := wire.MakeFID(1, 0)
	cached := newSizedStore(t, size, 1<<20)
	plain := newSizedStore(t, size, 0)
	storeRandom(t, cached, fid, size)
	storeRandom(t, plain, fid, size)
	ranges := []struct {
		name   string
		off, n uint32
	}{
		{"payload tail", crcHeaderSize, size - crcHeaderSize},
		{"interior 4 KB", 8 << 10, 4 << 10},
		{"tail past the middle", size - 4<<10, 4 << 10},
		{"whole extent", 0, size},
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range ranges {
			want := mustEncodeRead(t, plain, fid, r.off, r.n)
			if got := mustEncodeRead(t, cached, fid, r.off, r.n); !bytes.Equal(got, want) {
				t.Errorf("pass %d, %s: cached frame differs from uncached frame", pass, r.name)
			}
		}
	}
}

// Once an extent's CRC is computed, a response derives its frame
// checksum from that value rather than from the bytes it sends. So if
// the resident extent is later corrupted in memory, the frame no longer
// matches its payload and the client's frame check rejects it. This is
// new behaviour: while every response rehashed its payload, the server
// sent corrupted bytes under a matching checksum.
func TestCorruptedExtentFailsFrameCheck(t *testing.T) {
	const size = 16 << 10
	fid := wire.MakeFID(1, 0)
	s := newSizedStore(t, size, 1<<20)
	storeRandom(t, s, fid, size)
	frame := mustEncodeRead(t, s, fid, crcHeaderSize, size-crcHeaderSize)
	if _, err := wire.ReadResponseFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("intact extent: %v", err)
	}

	data, ext, err := s.Read(1, fid, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	ext.buf[size/2] ^= 0x01
	wire.PutBuffer(data)

	frame = mustEncodeRead(t, s, fid, crcHeaderSize, size-crcHeaderSize)
	if _, err := wire.ReadResponseFrame(bytes.NewReader(frame)); !errors.Is(err, wire.ErrBadCRC) {
		t.Fatalf("corrupted extent: ReadResponseFrame = %v, want ErrBadCRC", err)
	}
}

// Concurrent first reads of one extent may each compute its CRC; all
// must agree with the payload's true checksum.
func TestConcurrentFirstReadsAgreeOnCRC(t *testing.T) {
	const size = 64 << 10
	const readers = 8
	fid := wire.MakeFID(1, 0)
	s := newSizedStore(t, size, 1<<20)
	data := storeRandom(t, s, fid, size)
	want := crc32.ChecksumIEEE(data[crcHeaderSize:])

	// Fill the extent without touching its CRC: an interior read.
	if _, _, err := s.Read(1, fid, 0, 1); err != nil {
		t.Fatal(err)
	}
	crcs := make([]uint32, readers)
	var wg sync.WaitGroup
	for i := range crcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frame, err := encodeRead(s, fid, crcHeaderSize, size-crcHeaderSize)
			if err != nil {
				t.Error(err)
				return
			}
			// The frame's payload is the body after its 4-byte length
			// prefix, and the payload's CRC follows from the frame's.
			hdrAndLen := frame[:len(frame)-4-(size-crcHeaderSize)]
			frameCRC := binary.LittleEndian.Uint32(frame[len(frame)-4:])
			crcs[i] = wire.SuffixCRC(frameCRC, crc32.ChecksumIEEE(hdrAndLen), size-crcHeaderSize)
		}()
	}
	wg.Wait()
	for i, got := range crcs {
		if got != want {
			t.Errorf("reader %d: payload CRC %#08x, want %#08x", i, got, want)
		}
	}
}

// BenchmarkCachedReadResponse frames fragio's payload fetch — a 1 MB
// fragment minus its 256-byte header — from a warm cached extent.
func BenchmarkCachedReadResponse(b *testing.B) {
	const size = 1 << 20
	fid := wire.MakeFID(1, 0)
	s := newSizedStore(b, size, 4<<20)
	storeRandom(b, s, fid, size)
	req := wire.NewEncoder(16)
	(&wire.ReadRequest{FID: fid, Off: crcHeaderSize, Len: size - crcHeaderSize}).Encode(req)
	for b.Loop() {
		status, msg := s.Handle(1, wire.OpRead, req.Bytes())
		if status != wire.StatusOK {
			b.Fatalf("status %v", status)
		}
		if err := wire.WriteResponse(io.Discard, wire.OpRead, 1, msg); err != nil {
			b.Fatal(err)
		}
		wire.PutBuffer(msg.(wire.PayloadMessage).Payload())
	}
}
