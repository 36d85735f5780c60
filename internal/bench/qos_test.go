package bench

import (
	"testing"
	"time"
)

// TestQoSSmoke runs a tiny multi-tenant overload sweep end to end: all
// four regimes complete, the rows are shaped right, and the per-tenant
// accounting is self-consistent. The isolation ratios (light tenant near
// its solo baseline, aggregate goodput near FIFO) are timing-sensitive,
// so like the other benchmark ratios they are enforced only under
// SWARM_BENCH_STRICT.
func TestQoSSmoke(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunQoS(QoSBenchConfig{
		Servers:       2,
		FragBytes:     16 << 10,
		LightWriters:  1,
		GreedyWriters: 8,
		Duration:      300 * time.Millisecond,
		Warmup:        100 * time.Millisecond,
		Scale:         50,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (solo, fifo, wfq, wfq+quota)", len(rows))
	}
	for i, want := range []string{"solo", "fifo", "wfq", "wfq+quota"} {
		if rows[i].Mode != want {
			t.Fatalf("rows[%d].Mode = %q, want %q", i, rows[i].Mode, want)
		}
	}
	solo := rows[0]
	if len(solo.Tenants) != 1 || solo.Tenants[0].Tenant != "light" {
		t.Fatalf("solo tenants = %+v, want just the light tenant", solo.Tenants)
	}
	if solo.Tenants[0].Ops == 0 {
		t.Fatal("solo mode served no operations")
	}
	for _, r := range rows[1:] {
		if len(r.Tenants) != 2 {
			t.Fatalf("%s: tenants = %d, want light + greedy", r.Mode, len(r.Tenants))
		}
		for _, tn := range r.Tenants {
			if tn.Ops == 0 {
				t.Fatalf("%s/%s: tenant starved outright (0 ops)", r.Mode, tn.Tenant)
			}
			if tn.MBps <= 0 || tn.P50MS <= 0 || tn.P99MS < tn.P50MS {
				t.Fatalf("%s/%s: implausible stats %+v", r.Mode, tn.Tenant, tn)
			}
		}
		if r.AggregateMBps <= 0 {
			t.Fatalf("%s: zero aggregate goodput", r.Mode)
		}
	}
	// FIFO must not shed (there is no admission control to shed from),
	// and no busy retries should reach a FIFO server.
	if ft := rows[1].Tenants[1]; ft.Sheds != 0 || ft.BusyRetries != 0 {
		t.Fatalf("fifo sheds = %d busy retries = %d, want 0", ft.Sheds, ft.BusyRetries)
	}
	if iso := QoSIsolationSummary(rows); len(iso) != 3 {
		t.Fatalf("isolation rows = %d, want 3", len(iso))
	}
	report(t, "qos", qosTables(rows))
	if benchStrict() {
		iso := QoSIsolationSummary(rows)
		wfq := iso[1]
		if wfq.LightMBpsFrac < 0.4 {
			t.Fatalf("wfq: light keeps %.0f%% of solo, want >= 40%%", 100*wfq.LightMBpsFrac)
		}
		if wfq.AggVsFIFO < 0.85 {
			t.Fatalf("wfq: aggregate %.0f%% of FIFO, want >= 85%%", 100*wfq.AggVsFIFO)
		}
	}
}
