package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"swarm/internal/core"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

func checkMetrics(t *testing.T, what string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", what, w.Name)
		case m.unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, m.unit, w.Unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("%s: metric %s = %v", what, w.Name, m.value)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each metric BENCHMARK.json names is reported with its unit
// and a finite value, that every read and read-back matched, that child
// spans lie inside their parents, and that nothing leaks.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Work), len(workloads))
	}
	base := takeBaseline()
	for _, sw := range spec.Work {
		t.Run(sw.Name, func(t *testing.T) {
			w, ok := findWorkload(sw.Name)
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %s", sw.Name)
			}
			o := options{w: w, seed: 7, seconds: 1, workdir: t.TempDir(), scale: 0.02, setupReps: 2}
			plain, err := runOnce(o, nil)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if !plain.correct() || plain.s.attempted == 0 {
				t.Fatalf("untraced run: attempted %d, failed %d, mismatches %d", plain.s.attempted, plain.s.failed, plain.s.mismatches)
			}
			e2e := endToEnd(plain)
			checkMetrics(t, "end-to-end", e2e, spec.EndToEnd)

			tr := newTracer()
			traced, err := runOnce(o, tr)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if !traced.correct() {
				t.Fatalf("traced run: failed %d, mismatches %d", traced.s.failed, traced.s.mismatches)
			}
			spans := tr.snapshotSpans()
			sp := analyzeSpans(spans)
			checkMetrics(t, "per-layer", perLayer(traced, sp, e2e, plain.goodputMBs()), spec.PerLayer)
			if sp.outside != 0 {
				t.Errorf("%d child spans lie outside their parent's interval", sp.outside)
			}
			ops := make(map[uint64]span)
			for _, s := range spans {
				if s.kind.isOp() {
					ops[s.id] = s
				}
			}
			for _, s := range spans {
				if s.end < s.start {
					t.Errorf("span %d ends before it starts", s.id)
				}
				if s.parent == 0 {
					continue
				}
				p, ok := ops[s.parent]
				if !ok {
					t.Errorf("span %d has unknown parent %d", s.id, s.parent)
				} else if s.start < p.start || s.end > p.end {
					t.Errorf("span %d [%d,%d] outside parent %d [%d,%d]", s.id, s.start, s.end, p.id, p.start, p.end)
				}
			}
			if sp.count[spanRead]+sp.count[spanWrite] == 0 {
				t.Error("traced run recorded no Sting operations")
			}
		})
	}
	if err := base.check(); err != nil {
		t.Error(err)
	}
}

// singleClient writes a seeded file through one client with periodic
// syncs and returns the client's log statistics, the slots held on the
// servers, and the counter snapshots around the writes.
func singleClient(t *testing.T, tr *tracer) (core.LogStats, int64, snapshot, snapshot) {
	t.Helper()
	cl, err := startCluster(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	c, err := cl.connect(1, 0, blockCacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.fs.Create("/seq")
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset{path: "/seq", file: f, versions: make([]uint32, blocksFor(6))}
	clients := []*client{c}
	before, err := takeSnapshot(clients, cl, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.on.Store(true)
	}
	if err := writeSeq(c.fs, ds, 3, 1, 0, len(ds.versions), 1<<20, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	after, err := takeSnapshot(clients, cl, tr)
	if err != nil {
		t.Fatal(err)
	}
	stats := c.log.Stats()
	slots, err := slotsHeld(c, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	return stats, slots, before, after
}

// TestTracedMatchesUntraced checks that the decorators pass calls through
// unchanged: the same seeded single-client writes yield the same log
// statistics and the same slots held on both stacks, and the traced
// counters reconcile across layers.
func TestTracedMatchesUntraced(t *testing.T) {
	base := takeBaseline()
	plainStats, plainSlots, _, _ := singleClient(t, nil)
	tr := newTracer()
	tracedStats, tracedSlots, b, a := singleClient(t, tr)
	if !reflect.DeepEqual(plainStats, tracedStats) {
		t.Errorf("log stats differ:\nuntraced %+v\ntraced   %+v", plainStats, tracedStats)
	}
	if plainSlots != tracedSlots {
		t.Errorf("slots held: untraced %d, traced %d", plainSlots, tracedSlots)
	}
	sp := analyzeSpans(tr.snapshotSpans())
	if got, want := int64(sp.count[spanRPCStore]), a.stores-b.stores; got != want || got == 0 {
		t.Errorf("transport.store_calls = %d, fragio.stores = %d", got, want)
	}
	if got, want := a.disk.syncs-b.disk.syncs, int64(a.srv.Syncs-b.srv.Syncs); got != want || got == 0 {
		t.Errorf("disk.syncs = %d, server Syncs = %d", got, want)
	}
	if a.wireIn-b.wireIn < uint64(a.blockBytes-b.blockBytes) {
		t.Errorf("wire.bytes_in %d below the %d user bytes shipped", a.wireIn-b.wireIn, a.blockBytes-b.blockBytes)
	}
	if err := base.check(); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(1001-i))
	}
	if got := quantile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := quantile(ds, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
}
