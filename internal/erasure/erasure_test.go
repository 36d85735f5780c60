package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// encode builds the m parity shards for data via AddData, the write
// path's incremental shape.
func encode(t testing.TB, c Code, data [][]byte, size int) [][]byte {
	t.Helper()
	parity := make([][]byte, c.ParityShards())
	for j := range parity {
		parity[j] = make([]byte, size)
	}
	for i, d := range data {
		c.AddData(i, d, parity)
	}
	return parity
}

func randShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		// Variable lengths: shards are logically zero-padded to size.
		n := rng.Intn(size + 1)
		data[i] = make([]byte, n)
		rng.Read(data[i])
	}
	return data
}

// padded returns s zero-extended to size, for byte-exact comparison
// against reconstructed shards.
func padded(s []byte, size int) []byte {
	out := make([]byte, size)
	copy(out, s)
	return out
}

func TestGFTables(t *testing.T) {
	// Field axioms on a sample: a·a^-1 = 1, distributivity over ⊕.
	for a := 1; a < 256; a++ {
		if got := mul(byte(a), inv(byte(a))); got != 1 {
			t.Fatalf("a·a^-1 = %d for a=%d", got, a)
		}
	}
	for i := 0; i < 1000; i++ {
		a, b, c := byte(i*7+1), byte(i*13+5), byte(i*31+11)
		if mul(a, b^c) != mul(a, b)^mul(a, c) {
			t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
		}
		if mul(a, b) != mul(b, a) {
			t.Fatalf("commutativity fails at %d,%d", a, b)
		}
	}
	if mul(0, 77) != 0 || mul(77, 0) != 0 {
		t.Fatal("zero annihilation fails")
	}
}

func TestMulSliceXorMatchesScalar(t *testing.T) {
	// The scalar loop is the reference: check it against the field
	// multiply once, then hold mulSliceXor (vector kernel + scalar tail
	// where the CPU has one) to it for every coefficient, every short
	// length, a long unaligned run, and dst/src at unaligned offsets.
	rng := rand.New(rand.NewSource(1))
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	for c := 0; c < 256; c++ {
		dst := make([]byte, 256)
		mulSliceXorScalar(byte(c), dst, every)
		for i, b := range dst {
			if b != mul(byte(c), byte(i)) {
				t.Fatalf("scalar %#x·%#x = %#x, want %#x", c, i, b, mul(byte(c), byte(i)))
			}
		}
	}

	const pad = 80 // room for offsets and untouched guard bytes
	const long = 1<<20 + 13
	noise := make([]byte, 2*(long+pad))
	rng.Read(noise)
	src := noise[:long+pad]
	got := make([]byte, long+pad)
	want := make([]byte, long+pad)
	check := func(c byte, n, dOff, sOff int) {
		t.Helper()
		g, w := got[:n+pad], want[:n+pad]
		copy(g, noise[long+pad+int(c):])
		copy(w, g)
		// Either side may be the longer; only the shorter length changes.
		d, sv := g[dOff:dOff+n], src[sOff:sOff+n]
		if dOff%2 == 0 {
			d = g[dOff : dOff+n+3]
		} else {
			sv = src[sOff : sOff+n+3]
		}
		mulSliceXor(c, d, sv)
		mulSliceXorScalar(c, w[dOff:dOff+n], src[sOff:sOff+n])
		if !bytes.Equal(g, w) {
			t.Fatalf("mulSliceXor(c=%#x, n=%d, dst+%d, src+%d) differs from the scalar loop", c, n, dOff, sOff)
		}
	}
	offsets := [][2]int{{0, 0}, {1, 0}, {0, 7}, {13, 33}}
	for c := 0; c < 256; c++ {
		for n := 0; n <= 257; n++ {
			for _, o := range offsets {
				check(byte(c), n, o[0], o[1])
			}
		}
		check(byte(c), long, 3, 5)
	}
}

func TestCauchyAnyKRowsInvertible(t *testing.T) {
	// The any-k-of-n guarantee, exhaustively for RS(4,2): every 4-subset
	// of the 6 encode rows must be invertible.
	r := newRS(4, 2)
	n := 6
	var subsets func(start int, chosen []int)
	subsets = func(start int, chosen []int) {
		if len(chosen) == r.k {
			sub := newMatrix(r.k, r.k)
			for ri, i := range chosen {
				copy(sub[ri], r.encodeRow(i))
			}
			if _, err := sub.invert(); err != nil {
				t.Fatalf("rows %v not invertible: %v", chosen, err)
			}
			return
		}
		for i := start; i < n; i++ {
			subsets(i+1, append(chosen, i))
		}
	}
	subsets(0, nil)
}

func TestXORMatchesLegacyParity(t *testing.T) {
	// The XOR code must produce byte-identical parity to a plain running
	// XOR — it is the same on-disk format as every pre-RS stripe.
	rng := rand.New(rand.NewSource(2))
	const size = 512
	c, err := New(KindXOR, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 3, size)
	parity := encode(t, c, data, size)
	want := make([]byte, size)
	for _, d := range data {
		for i, b := range d {
			want[i] ^= b
		}
	}
	if !bytes.Equal(parity[0], want) {
		t.Fatal("xor code parity differs from running xor")
	}
	// And it refuses double losses.
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[1] = nil, nil
	if _, err := c.Reconstruct(shards, 0, size); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("two losses: err = %v, want ErrInsufficient", err)
	}
}

// checkReconstruct asks for every shard of a stripe with the lost set
// missing and asserts each answer is byte-exact and that only the wanted
// shard is decoded: Reconstruct never fills in the shards slice.
func checkReconstruct(t *testing.T, c Code, full [][]byte, lost map[int]bool, size int) {
	t.Helper()
	shards := make([][]byte, len(full))
	for i := range shards {
		if !lost[i] {
			shards[i] = full[i]
		}
	}
	for want := range shards {
		got, err := c.Reconstruct(shards, want, size)
		if err != nil {
			t.Fatalf("want %d, lost %v: %v", want, lost, err)
		}
		if !bytes.Equal(padded(got, size), padded(full[want], size)) {
			t.Fatalf("want %d, lost %v: shard differs", want, lost)
		}
		for i, s := range shards {
			if lost[i] != (s == nil) {
				t.Fatalf("want %d, lost %v: shard %d presence changed", want, lost, i)
			}
		}
	}
}

func TestReconstructEveryLossPattern(t *testing.T) {
	// RS(4,2): for every 0-, 1- and 2-subset of the 6 members lost, ask
	// for every shard — data and parity, lost and present.
	rng := rand.New(rand.NewSource(3))
	const size = 333
	c, err := New(KindRS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 4, size)
	parity := encode(t, c, data, size)
	full := append(append([][]byte{}, data...), parity...)
	for a := 0; a < 6; a++ {
		for b := a; b < 6; b++ {
			checkReconstruct(t, c, full, map[int]bool{a: true, b: true}, size)
		}
	}
	checkReconstruct(t, c, full, nil, size)
}

func TestReconstructRejectsTooManyLosses(t *testing.T) {
	c, _ := New(KindRS, 4, 2)
	shards := make([][]byte, 6)
	shards[0] = make([]byte, 8)
	shards[1] = make([]byte, 8)
	shards[2] = make([]byte, 8)
	if _, err := c.Reconstruct(shards, 3, 8); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	for _, want := range []int{-1, 6} {
		if _, err := c.Reconstruct(shards, want, 8); !errors.Is(err, ErrConfig) {
			t.Fatalf("want %d: err = %v, want ErrConfig", want, err)
		}
	}
	if _, err := c.Reconstruct(shards[:5], 0, 8); !errors.Is(err, ErrConfig) {
		t.Fatalf("5 shards: err = %v, want ErrConfig", err)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		kind Kind
		k, m int
	}{
		{KindXOR, 3, 2},  // xor needs m=1
		{KindRS, 0, 2},   // k >= 1
		{KindRS, 4, 0},   // m >= 1
		{KindRS, 254, 9}, // k+m over the field bound
		{Kind(9), 4, 2},  // unknown kind
	}
	for _, tc := range cases {
		if _, err := New(tc.kind, tc.k, tc.m); !errors.Is(err, ErrConfig) {
			t.Fatalf("New(%v,%d,%d) err = %v, want ErrConfig", tc.kind, tc.k, tc.m, err)
		}
	}
	if _, err := ParseKind("zfec"); !errors.Is(err, ErrConfig) {
		t.Fatalf("ParseKind err = %v", err)
	}
	for _, s := range []string{"xor", "rs"} {
		k, err := ParseKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatalf("Kind(9).String() = %q", Kind(9).String())
	}
}

func TestRSWideConfig(t *testing.T) {
	// A wider code near the stripe maximum: RS(12,4), drop 4.
	rng := rand.New(rand.NewSource(4))
	const size = 100
	c, err := New(KindRS, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := randShards(rng, 12, size)
	parity := encode(t, c, data, size)
	full := append(append([][]byte{}, data...), parity...)
	checkReconstruct(t, c, full, map[int]bool{0: true, 5: true, 12: true, 15: true}, size)
}

// FuzzErasureRoundTrip: encode random shards under a random (k, m),
// drop up to m members, and assert byte-exact reconstruction of every
// shard. Shard sizes run to 4 KB so the vector kernel's 64-byte blocks
// and the scalar tail both run. Wired into `make fuzz-smoke`.
func FuzzErasureRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint16(64), uint8(0b11))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1), uint8(0b1))
	f.Add(int64(3), uint8(8), uint8(2), uint16(300), uint8(0b10000001))
	f.Add(int64(4), uint8(3), uint8(1), uint16(9), uint8(0))
	f.Add(int64(5), uint8(4), uint8(2), uint16(4095), uint8(0b100001))
	f.Fuzz(func(t *testing.T, seed int64, kSeed, mSeed uint8, sizeSeed uint16, dropMask uint8) {
		k := int(kSeed)%12 + 1
		m := int(mSeed)%4 + 1
		size := int(sizeSeed)%4096 + 1
		kind := KindRS
		if m == 1 && seed%2 == 0 {
			kind = KindXOR
		}
		c, err := New(kind, k, m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		data := randShards(rng, k, size)
		parity := encode(t, c, data, size)
		full := append(append([][]byte{}, data...), parity...)

		// Drop up to m shards, chosen by the mask.
		lost := map[int]bool{}
		for i := 0; i < k+m && len(lost) < m; i++ {
			if dropMask&(1<<(i%8)) != 0 {
				lost[i] = true
			}
		}
		checkReconstruct(t, c, full, lost, size)
	})
}

// Micro-benchmarks over 1 MB shards, the default fragment payload.
const benchShard = 1 << 20

func BenchmarkMulSliceXor(b *testing.B) {
	dst := make([]byte, benchShard)
	src := make([]byte, benchShard)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(benchShard)
	for b.Loop() {
		mulSliceXor(0x53, dst, src)
	}
}

// BenchmarkAddDataRS42 folds one 1 MB data shard into RS(4,2)'s two
// parity accumulators: the write path's per-fragment encode cost.
func BenchmarkAddDataRS42(b *testing.B) {
	c, _ := New(KindRS, 4, 2)
	data := make([]byte, benchShard)
	rand.New(rand.NewSource(1)).Read(data)
	parity := [][]byte{make([]byte, benchShard), make([]byte, benchShard)}
	b.SetBytes(benchShard)
	for b.Loop() {
		c.AddData(1, data, parity)
	}
}

// BenchmarkReconstructRS42 rebuilds one lost 1 MB data shard from four
// survivors, with the sixth member (the straggler a k-of-n gather does
// not wait for) also nil: the degraded read path's decode.
func BenchmarkReconstructRS42(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, _ := New(KindRS, 4, 2)
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, benchShard)
		rng.Read(data[i])
	}
	full := append(data, encode(b, c, data, benchShard)...)
	shards := make([][]byte, 6)
	copy(shards, full)
	shards[0], shards[5] = nil, nil
	b.SetBytes(benchShard)
	for b.Loop() {
		if _, err := c.Reconstruct(shards, 0, benchShard); err != nil {
			b.Fatal(err)
		}
	}
}
