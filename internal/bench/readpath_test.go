package bench

import "testing"

// TestReadpathSmoke runs a tiny Zipf serving-tier sweep end to end: the
// workload completes in every mode and the counters are self-consistent.
// The ≥2x speedup acceptance ratio is timing-sensitive, so like the other
// benchmark ratios it is enforced only under SWARM_BENCH_STRICT.
func TestReadpathSmoke(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunReadpath(ReadpathConfig{
		Servers:   2,
		Blocks:    512,
		BlockSize: 4096,
		Clients:   4,
		Ops:       400,
		Scale:     50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d, want at least off + one cache mode", len(rows))
	}
	if rows[0].Mode != "off" {
		t.Fatalf("first row = %q, want off", rows[0].Mode)
	}
	if rows[0].ServerHits != 0 || rows[0].BytesCachedMB != 0 {
		t.Fatalf("serving tier off but server cache served: hits=%d cachedMB=%f",
			rows[0].ServerHits, rows[0].BytesCachedMB)
	}
	for _, r := range rows[1:] {
		if r.ServerHits+r.ServerMisses == 0 {
			t.Fatalf("%s: server read cache saw no traffic", r.Mode)
		}
		if r.ServerHitRate <= 0 {
			t.Fatalf("%s: zero server hit rate on a Zipf workload", r.Mode)
		}
	}
	if speedup := ReadpathSpeedup(rows); benchStrict() && speedup < 2 {
		t.Fatalf("serving-tier speedup = %.2fx, want >= 2x", speedup)
	}
}
