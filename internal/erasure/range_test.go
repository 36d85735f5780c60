package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// Both codes are bytewise: byte i of any shard depends only on byte i
// of k others. A degraded read therefore decodes just the range [a, b)
// it needs from the same range of k survivors, each cut to its own
// length — a survivor that ends at or before a is all zeros there and
// joins as an empty shard. These tests hold that decode to the whole
// one, byte for byte.

// sliceRange cuts every present shard to [a, b), clamped to its length.
// A shard ending at or before a stays present, as an empty slice: nil
// is the decoder's missing-shard marker.
func sliceRange(shards [][]byte, a, b int) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		switch {
		case s == nil:
		case len(s) <= a:
			out[i] = []byte{}
		default:
			out[i] = s[a:min(b, len(s))]
		}
	}
	return out
}

// stripe encodes data under c and returns every shard, data then
// parity, each parity trimmed to the longest data shard the way the
// log stores it (the bytes beyond are zero).
func stripe(t testing.TB, c Code, data [][]byte, size int) [][]byte {
	t.Helper()
	maxLen := 0
	for _, d := range data {
		maxLen = max(maxLen, len(d))
	}
	full := append([][]byte{}, data...)
	for _, p := range encode(t, c, data, size) {
		full = append(full, p[:maxLen])
	}
	return full
}

// checkRange decodes every shard over [a, b) from the range-cut
// survivors and asserts it equals the same bytes of the whole shard and
// of a whole-shard decode.
func checkRange(t *testing.T, c Code, full [][]byte, lost map[int]bool, a, b, size int) {
	t.Helper()
	whole := make([][]byte, len(full))
	for i := range whole {
		if !lost[i] {
			whole[i] = full[i]
		}
	}
	cut := sliceRange(whole, a, b)
	for want := range full {
		got, err := c.Reconstruct(cut, want, b-a)
		if err != nil {
			t.Fatalf("want %d, lost %v, [%d,%d): %v", want, lost, a, b, err)
		}
		ref := padded(full[want], size)[a:b]
		if !bytes.Equal(padded(got, b-a), ref) {
			t.Fatalf("want %d, lost %v, [%d,%d): range decode differs from the shard", want, lost, a, b)
		}
		w, err := c.Reconstruct(whole, want, size)
		if err != nil {
			t.Fatalf("want %d, lost %v: whole decode: %v", want, lost, err)
		}
		if !bytes.Equal(padded(w, size)[a:b], ref) {
			t.Fatalf("want %d, lost %v, [%d,%d): whole decode differs from the shard", want, lost, a, b)
		}
	}
}

// rangeCase builds one random stripe under c and a random range, then
// forces the three edge shapes onto the data shards: one shard ends
// before a, one ends inside [a, b), one is empty.
func rangeCase(rng *rand.Rand, c Code, size int) (data [][]byte, a, b int) {
	k := c.DataShards()
	data = randShards(rng, k, size)
	a = rng.Intn(size)
	b = a + 1 + rng.Intn(size-a)
	shapes := []int{rng.Intn(a + 1), a + rng.Intn(b-a+1), 0}
	for _, n := range shapes {
		if rng.Intn(2) == 0 {
			d := make([]byte, n)
			rng.Read(d)
			data[rng.Intn(k)] = d
		}
	}
	return data, a, b
}

// randLost picks up to m lost shards of n.
func randLost(rng *rand.Rand, n, m int) map[int]bool {
	lost := map[int]bool{}
	for _, i := range rng.Perm(n)[:rng.Intn(m+1)] {
		lost[i] = true
	}
	return lost
}

func TestReconstructRangeMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	codes := []struct {
		kind Kind
		k, m int
	}{
		{KindXOR, 1, 1}, {KindXOR, 3, 1}, {KindXOR, 5, 1},
		{KindRS, 4, 2}, {KindRS, 3, 3}, {KindRS, 12, 4}, {KindRS, 1, 2},
	}
	for _, cc := range codes {
		c, err := New(cc.kind, cc.k, cc.m)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			size := 1 + rng.Intn(700)
			data, a, b := rangeCase(rng, c, size)
			full := stripe(t, c, data, size)
			checkRange(t, c, full, randLost(rng, cc.k+cc.m, cc.m), a, b, size)
		}
	}
}

// TestReconstructRangeEveryLossPattern decodes RS(4,2) ranges under
// every 0-, 1- and 2-subset of lost members, over ranges that start
// before, at, inside and past the short shards' ends.
func TestReconstructRangeEveryLossPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const size = 300
	c, err := New(KindRS, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var data [][]byte
	for _, n := range []int{100, 0, 250, size} {
		d := make([]byte, n)
		rng.Read(d)
		data = append(data, d)
	}
	full := stripe(t, c, data, size)
	ranges := [][2]int{{0, 4}, {96, 104}, {100, 101}, {120, 250}, {200, 300}, {250, 251}, {0, size}}
	for x := 0; x < 6; x++ {
		for y := x; y < 6; y++ {
			for _, r := range ranges {
				checkRange(t, c, full, map[int]bool{x: true, y: true}, r[0], r[1], size)
			}
		}
	}
}

// FuzzReconstructRange: a random (kind, k, m) stripe of random shard
// lengths, up to m lost shards and a random range; the range decode of
// every shard must equal the whole shard's bytes there. Wired into
// `make fuzz-smoke`.
func FuzzReconstructRange(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint16(64), uint8(0b11), uint16(3), uint16(40))
	f.Add(int64(2), uint8(5), uint8(1), uint16(4096), uint8(0b1), uint16(4000), uint16(96))
	f.Add(int64(3), uint8(1), uint8(1), uint16(1), uint8(0), uint16(0), uint16(1))
	f.Add(int64(5), uint8(12), uint8(4), uint16(777), uint8(0b1010101), uint16(500), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, kSeed, mSeed uint8, sizeSeed uint16, dropMask uint8, aSeed, nSeed uint16) {
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
		data, _, _ := rangeCase(rng, c, size)
		a := int(aSeed) % size
		b := a + 1 + int(nSeed)%(size-a)
		full := stripe(t, c, data, size)
		lost := map[int]bool{}
		for i := 0; i < k+m && len(lost) < m; i++ {
			if dropMask&(1<<(i%8)) != 0 {
				lost[i] = true
			}
		}
		checkRange(t, c, full, lost, a, b, size)
	})
}
