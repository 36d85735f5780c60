package bench

import (
	"strings"
	"testing"
	"time"
)

// The drain benchmark is latency-injection-dominated, so a small
// configuration is cheap enough for the smoke suite even under -race.
func TestRebalanceSmoke(t *testing.T) {
	r, err := RunRebalanceBench(RebalanceConfig{Blocks: 48, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Moved == 0 {
		t.Fatal("drain moved nothing")
	}
	if r.SteadyMBps <= 0 || r.DrainMBps <= 0 {
		t.Fatalf("degenerate throughput: %+v", r)
	}
	// The acceptance bar: foreground appends keep at least half their
	// steady-state throughput while the rebalancer runs.
	if r.Ratio < 0.5 {
		t.Fatalf("drain throughput ratio %.2f < 0.5 (steady %.2f MB/s, draining %.2f MB/s)",
			r.Ratio, r.SteadyMBps, r.DrainMBps)
	}
	// Join + drain each close the current stripe and bump the epoch.
	if r.FinalEpoch != 2 {
		t.Fatalf("final epoch %d, want 2", r.FinalEpoch)
	}

	if out := report(t, "rebalance", []Table{rebalanceTable(r)}); !strings.Contains(out, "ratio") {
		t.Fatalf("unexpected table: %q", out)
	}
}
