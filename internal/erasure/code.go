package erasure

import (
	"errors"
	"fmt"
)

// Errors.
var (
	// ErrInsufficient is returned when fewer than k shards survive.
	ErrInsufficient = errors.New("erasure: insufficient surviving shards")
	// ErrConfig is returned for invalid (kind, k, m) combinations.
	ErrConfig = errors.New("erasure: invalid configuration")
)

// Kind identifies a code on the wire (stored in fragment headers, so a
// reader decodes every stripe with the code that wrote it regardless of
// its own configuration). Values are part of the on-disk format.
type Kind uint8

const (
	// KindXOR is the paper's single rotating XOR parity: m must be 1,
	// tolerates exactly one lost member per stripe. Version-1 fragment
	// headers imply this code.
	KindXOR Kind = 1
	// KindRS is systematic GF(2^8) Reed–Solomon over a Cauchy matrix:
	// any k of the k+m members reconstruct the rest.
	KindRS Kind = 2
)

// String names the kind for logs and CLI output.
func (k Kind) String() string {
	switch k {
	case KindXOR:
		return "xor"
	case KindRS:
		return "rs"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a CLI/config name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "xor":
		return KindXOR, nil
	case "rs", "reed-solomon":
		return KindRS, nil
	default:
		return 0, fmt.Errorf("%w: unknown codec %q (want xor or rs)", ErrConfig, s)
	}
}

// MaxShards bounds k+m (the Cauchy construction needs distinct field
// elements for every row and column index).
const MaxShards = 255

// Code computes and repairs a stripe's redundancy. Shards are ordered
// data first (ordinals 0..k-1) then parity (k..k+m-1); the caller owns
// the mapping from stripe member indices to ordinals. Shards may have
// different lengths — every shard is logically zero-padded to the
// stripe's payload size, which is exactly the short-fragment padding
// rule the XOR parity path has always used. Implementations are
// stateless and safe for concurrent use.
type Code interface {
	// Kind is the wire identifier for this code.
	Kind() Kind
	// DataShards returns k.
	DataShards() int
	// ParityShards returns m.
	ParityShards() int
	// AddData folds data shard di into the m parity accumulators, which
	// must be zeroed before the first shard and are valid parity once
	// every data shard has been added. Incremental accumulation is the
	// write path's shape: parity is computed as fragments seal (§2.1.2),
	// never from a re-read of the whole stripe.
	AddData(di int, data []byte, parity [][]byte)
	// Reconstruct returns shard want of a stripe whose shards (length
	// k+m) are nil where missing: a freshly allocated size-byte shard
	// computed from k non-nil survivors, or shards[want] itself when it
	// is present. Only the wanted shard is decoded — other nil entries
	// stay nil. Surviving shards may be shorter than size; the caller
	// trims a reconstructed data shard to its true length.
	Reconstruct(shards [][]byte, want, size int) ([]byte, error)
}

// New returns the code for (kind, k, m).
func New(kind Kind, k, m int) (Code, error) {
	if k < 1 || m < 1 || k+m > MaxShards {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrConfig, k, m)
	}
	switch kind {
	case KindXOR:
		if m != 1 {
			return nil, fmt.Errorf("%w: xor parity requires m=1, got %d", ErrConfig, m)
		}
		return xorCode{k: k}, nil
	case KindRS:
		return newRS(k, m), nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrConfig, uint8(kind))
	}
}

// ------------------------------------------------------------ XOR parity

// xorCode is the paper-faithful baseline: one parity shard holding the
// XOR of all data shards. Any single missing member is the XOR of the
// survivors.
type xorCode struct{ k int }

func (xorCode) Kind() Kind        { return KindXOR }
func (c xorCode) DataShards() int { return c.k }
func (xorCode) ParityShards() int { return 1 }

func (xorCode) AddData(_ int, data []byte, parity [][]byte) {
	xorSliceInto(parity[0], data)
}

func (c xorCode) Reconstruct(shards [][]byte, want, size int) ([]byte, error) {
	if err := checkWant(len(shards), c.k+1, want); err != nil {
		return nil, err
	}
	if shards[want] != nil {
		return shards[want], nil
	}
	out := make([]byte, size)
	for i, s := range shards {
		if i == want {
			continue
		}
		if s == nil {
			return nil, fmt.Errorf("%w: xor parity cannot repair 2+ losses", ErrInsufficient)
		}
		xorSliceInto(out, s)
	}
	return out, nil
}

// checkWant validates a Reconstruct call's shard count and target.
func checkWant(got, n, want int) error {
	if got != n {
		return fmt.Errorf("%w: %d shards for a %d-shard code", ErrConfig, got, n)
	}
	if want < 0 || want >= n {
		return fmt.Errorf("%w: shard %d outside 0..%d", ErrConfig, want, n-1)
	}
	return nil
}

// ----------------------------------------------------------- Reed–Solomon

// rs is a systematic Reed–Solomon code: the encode matrix is [I; C] with
// C the m×k Cauchy parity block, so data shards are stored verbatim and
// any k rows of the matrix are invertible (any k survivors suffice).
type rs struct {
	k, m int
	par  matrix // m×k Cauchy parity coefficients
}

func newRS(k, m int) *rs {
	return &rs{k: k, m: m, par: cauchyParity(k, m)}
}

func (*rs) Kind() Kind          { return KindRS }
func (r *rs) DataShards() int   { return r.k }
func (r *rs) ParityShards() int { return r.m }

func (r *rs) AddData(di int, data []byte, parity [][]byte) {
	for j := 0; j < r.m; j++ {
		mulSliceXor(r.par[j][di], parity[j], data)
	}
}

// encodeRow returns row i of the full (k+m)×k encode matrix.
func (r *rs) encodeRow(i int) []byte {
	if i < r.k {
		return identityRow(r.k, i)
	}
	return r.par[i-r.k]
}

// Reconstruct decodes one shard with k multiply-accumulate passes. Take
// k survivors (data rows first: identity rows keep the inversion sparse)
// and stack their encode rows into the k×k matrix S, so survivors = S ·
// data and data = S⁻¹ · survivors. Shard want is encodeRow(want) · data,
// hence encodeRow(want) · S⁻¹ · survivors: one k-coefficient decode row
// applied to the survivors. The same derivation covers a data target
// (its encode row is a unit vector, picking a row of S⁻¹) and a parity
// target (a Cauchy row), so nothing outside the wanted shard is computed.
func (r *rs) Reconstruct(shards [][]byte, want, size int) ([]byte, error) {
	if err := checkWant(len(shards), r.k+r.m, want); err != nil {
		return nil, err
	}
	if shards[want] != nil {
		return shards[want], nil
	}
	chosen := make([]int, 0, r.k)
	for i, s := range shards {
		if s != nil && len(chosen) < r.k {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) < r.k {
		return nil, fmt.Errorf("%w: %d of %d shards present, need %d", ErrInsufficient, len(chosen), r.k+r.m, r.k)
	}
	sub := newMatrix(r.k, r.k)
	for ri, i := range chosen {
		copy(sub[ri], r.encodeRow(i))
	}
	dec, err := sub.invert()
	if err != nil {
		return nil, err
	}
	row := r.encodeRow(want)
	coef := make([]byte, r.k)
	for d, e := range row {
		if e == 0 {
			continue
		}
		for j := range coef {
			coef[j] ^= mul(e, dec[d][j])
		}
	}
	out := make([]byte, size)
	for j, src := range chosen {
		mulSliceXor(coef[j], out, shards[src])
	}
	return out, nil
}
