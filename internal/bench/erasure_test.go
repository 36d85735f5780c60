package bench

import (
	"strings"
	"testing"
	"time"
)

// The erasure benchmark is sleep-dominated in its decode phase and pure
// accounting on the write side, so its assertions hold under -race.
func TestErasureSweepSmoke(t *testing.T) {
	rows, err := RunErasureSweep([][2]int{{4, 1}, {4, 2}, {8, 2}},
		ErasureConfig{Stripes: 2, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Amplification must exceed the information-theoretic floor
		// (k+m)/k (headers, entry framing, short stripes' parity ride along) but
		// stay within a sane envelope of it.
		ideal := float64(r.K+r.M) / float64(r.K)
		if r.WriteAmp <= ideal {
			t.Fatalf("(%d,%d): write amp %.3f at or under the ideal %.3f", r.K, r.M, r.WriteAmp, ideal)
		}
		if r.WriteAmp > 3*ideal {
			t.Fatalf("(%d,%d): write amp %.3f implausibly high (ideal %.3f)", r.K, r.M, r.WriteAmp, ideal)
		}
		if r.LostFragments == 0 || r.ReconPerFrag <= 0 {
			t.Fatalf("(%d,%d): empty reconstruction phase: %+v", r.K, r.M, r)
		}
		t.Logf("(%d,%d) %s: amp %.3f (ideal %.3f), %d lost, %v/frag",
			r.K, r.M, r.Codec, r.WriteAmp, ideal, r.LostFragments, r.ReconPerFrag)
	}
	// More parity per stripe ⇒ more amplification: (4,2) > (4,1).
	if rows[1].WriteAmp <= rows[0].WriteAmp {
		t.Fatalf("amp(4,2)=%.3f not above amp(4,1)=%.3f", rows[1].WriteAmp, rows[0].WriteAmp)
	}
	// Wider data per stripe ⇒ less: (8,2) < (4,2).
	if rows[2].WriteAmp >= rows[1].WriteAmp {
		t.Fatalf("amp(8,2)=%.3f not below amp(4,2)=%.3f", rows[2].WriteAmp, rows[1].WriteAmp)
	}

	var sb strings.Builder
	PrintErasureResults(&sb, rows)
	if !strings.Contains(sb.String(), "write amp") {
		t.Fatalf("render missing table header:\n%s", sb.String())
	}
}
