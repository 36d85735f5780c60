//go:build !amd64

package erasure

// mulSliceXorVec is the portable build's vector kernel: none, so the
// scalar loop covers every byte.
func mulSliceXorVec(c byte, dst, src []byte) int { return 0 }
