package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// crcTestLengths covers empty pieces, the 256-byte fragment header and
// its neighbours, lengths around powers of two, and a 1 MB payload that
// is not a power of two.
func crcTestLengths() []int {
	ls := []int{0, 1, 2, 3, 7, 255, 256, 257, 1<<20 + 13}
	for k := 3; k <= 20; k++ {
		ls = append(ls, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ls
}

func checkCRCSplit(t testing.TB, a, b []byte) {
	t.Helper()
	crcA, crcB := crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b)
	crcAB := crc32.Update(crcA, crc32.IEEETable, b)
	if got := CombineCRC(crcA, crcB, len(b)); got != crcAB {
		t.Fatalf("CombineCRC(len a %d, len b %d) = %#08x, want %#08x", len(a), len(b), got, crcAB)
	}
	if got := SuffixCRC(crcAB, crcA, len(b)); got != crcB {
		t.Fatalf("SuffixCRC(len a %d, len b %d) = %#08x, want %#08x", len(a), len(b), got, crcB)
	}
}

func TestCombineCRCMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 2<<20+64)
	rng.Read(buf)
	lens := crcTestLengths()
	for _, la := range lens {
		for _, lb := range lens {
			if la+lb > len(buf) {
				continue
			}
			start := rng.Intn(len(buf) - la - lb + 1)
			checkCRCSplit(t, buf[start:start+la], buf[start+la:start+la+lb])
		}
	}
	// Random splits of random-length buffers.
	for i := 0; i < 200; i++ {
		n := rng.Intn(64 << 10)
		split := rng.Intn(n + 1)
		checkCRCSplit(t, buf[:split], buf[split:n])
	}
}

func TestCRCCombinationAllocs(t *testing.T) {
	var sink uint32
	allocs := testing.AllocsPerRun(100, func() {
		sink ^= CombineCRC(0x12345678, 0x9abcdef0, 1<<20+13)
		sink ^= SuffixCRC(0x12345678, 0x9abcdef0, 1<<20+13)
	})
	if allocs != 0 {
		t.Fatalf("CRC combination allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte("header|payload"), uint(7))
	f.Add([]byte{}, uint(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 513), uint(256))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		s := int(split % uint(len(data)+1))
		checkCRCSplit(t, data[:s], data[s:])
	})
}

// knownCRCResponse is a ReadResponse that hands the frame writer a
// payload CRC, right or wrong.
type knownCRCResponse struct {
	ReadResponse
	crc uint32
}

func (m *knownCRCResponse) PayloadCRC() (uint32, bool) { return m.crc, true }

func TestKnownPayloadCRCFrameIsByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 1<<20 - 256} {
		data := bytes.Repeat([]byte{byte(n), 0x5e}, n/2+1)[:n]
		var plain, known bytes.Buffer
		if err := WriteResponse(&plain, OpRead, 11, &ReadResponse{Data: data}); err != nil {
			t.Fatal(err)
		}
		msg := &knownCRCResponse{ReadResponse{Data: data}, crc32.ChecksumIEEE(data)}
		if err := WriteResponse(&known, OpRead, 11, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), known.Bytes()) {
			t.Fatalf("%d-byte payload: frame with a known CRC differs from the hashed frame", n)
		}
	}
}

// A sender that claims a wrong payload CRC produces a frame whose
// checksum does not cover its bytes: the receiver, which recomputes the
// checksum over what it read, must reject it.
func TestWrongPayloadCRCIsRejected(t *testing.T) {
	data := bytes.Repeat([]byte{0x42}, 4096)
	var buf bytes.Buffer
	msg := &knownCRCResponse{ReadResponse{Data: data}, crc32.ChecksumIEEE(data) ^ 1}
	if err := WriteResponse(&buf, OpRead, 3, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponseFrame(&buf); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("ReadResponseFrame with a wrong payload CRC: %v, want ErrBadCRC", err)
	}
}

// BenchmarkSuffixCRC times deriving a 1 MB fragment payload's CRC from its
// extent's CRC and a 256-byte prefix's (the hashing of the prefix is
// not included).
func BenchmarkSuffixCRC(b *testing.B) {
	for b.Loop() {
		SuffixCRC(0x12345678, 0x9abcdef0, 1<<20-256)
	}
}
