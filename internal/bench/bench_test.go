package bench

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// Small, fast configurations: correctness of the harness, not absolute
// numbers. The shape assertions use generous margins.

// skipUnderRace skips timing-sensitive model tests when the race
// detector's slowdown would distort the measured shapes.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing-sensitive performance-model test; skipped under -race")
	}
}

// benchStrict gates the throughput-ratio assertions that depend on the
// host's real scheduling and I/O behavior. The simulated-time model
// reproduces the paper's shapes on an unloaded machine, but hard ratio
// thresholds are nondeterministic on shared or slow hosts; set
// SWARM_BENCH_STRICT=1 to enforce them.
func benchStrict() bool { return os.Getenv("SWARM_BENCH_STRICT") != "" }

// report passes a figure's tables through the registry entry named name
// and the one reporter: every row fills every column, the text report
// renders, and the JSON record reads back under the one schema with
// its run metadata. It returns the text report.
func report(t *testing.T, name string, tables []Table) string {
	t.Helper()
	figs, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: row %v has %d cells for %d columns", tb.Title, row, len(row), len(tb.Columns))
			}
		}
	}
	var sb strings.Builder
	Print(&sb, tables)
	path, err := WriteJSON(t.TempDir(), figs[0], tables)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if rec.Figure != name || rec.Meta.GoVersion == "" || len(rec.Tables) != len(tables) {
		t.Fatalf("%s: record = figure %q, meta %+v, %d tables", path, rec.Figure, rec.Meta, len(rec.Tables))
	}
	return sb.String()
}

// runFigure runs a registered figure through its Run and the reporter.
func runFigure(t *testing.T, name string, o Options) []Table {
	t.Helper()
	figs, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := figs[0].Run(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + report(t, name, tables))
	return tables
}

// value returns the cell of tb's row in the named column.
func value(t *testing.T, tb Table, row int, column string) any {
	t.Helper()
	for i, c := range tb.Columns {
		if c.Name == column {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", tb.Title, column)
	return nil
}

func TestWritePointSingleClient(t *testing.T) {
	skipUnderRace(t)
	r, err := RunWritePoint(WriteConfig{Clients: 1, Servers: 2, Blocks: 800, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.RawMBps <= 0 || r.UsefulMBps <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.UsefulMBps >= r.RawMBps {
		t.Fatalf("useful %.2f ≥ raw %.2f with parity on", r.UsefulMBps, r.RawMBps)
	}
	// With width 2, parity doubles the traffic: useful ≈ raw/2.
	ratio := r.UsefulMBps / r.RawMBps
	if ratio < 0.35 || ratio > 0.6 {
		t.Fatalf("useful/raw = %.2f, want ≈0.5", ratio)
	}
}

func TestWriteClientIsBottleneck(t *testing.T) {
	skipUnderRace(t)
	// Single client raw bandwidth should be in the neighbourhood of the
	// paper's ~6.1 MB/s and grow only slightly with more servers.
	r2, err := RunWritePoint(WriteConfig{Clients: 1, Servers: 2, Blocks: 2000, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunWritePoint(WriteConfig{Clients: 1, Servers: 8, Blocks: 2000, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r2.RawMBps < 4.0 || r2.RawMBps > 8.5 {
		t.Fatalf("1c2s raw = %.2f MB/s, want ~6", r2.RawMBps)
	}
	// Raw bandwidth should hold roughly steady as servers are added (the
	// client is the bottleneck); the tight ratio is host-timing-sensitive
	// so it is only enforced in strict mode.
	if r8.RawMBps < r2.RawMBps*0.6 {
		t.Fatalf("raw collapsed with more servers: %.2f -> %.2f", r2.RawMBps, r8.RawMBps)
	}
	if benchStrict() && r8.RawMBps < r2.RawMBps*0.85 {
		t.Fatalf("raw dropped with more servers: %.2f -> %.2f", r2.RawMBps, r8.RawMBps)
	}
	// Useful bandwidth grows with stripe width (parity amortization).
	if r8.UsefulMBps <= r2.UsefulMBps {
		t.Fatalf("useful did not grow with width: %.2f -> %.2f", r2.UsefulMBps, r8.UsefulMBps)
	}
}

func TestWriteScalesWithClients(t *testing.T) {
	skipUnderRace(t)
	r1, err := RunWritePoint(WriteConfig{Clients: 1, Servers: 8, Blocks: 800, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunWritePoint(WriteConfig{Clients: 4, Servers: 8, Blocks: 800, Scale: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate bandwidth must grow with clients; the near-linear 1.8x
	// bar needs idle CPUs, so it is only enforced in strict mode.
	if r4.UsefulMBps < r1.UsefulMBps*1.1 {
		t.Fatalf("4 clients %.2f MB/s vs 1 client %.2f MB/s: no scaling", r4.UsefulMBps, r1.UsefulMBps)
	}
	if benchStrict() && r4.UsefulMBps < r1.UsefulMBps*1.8 {
		t.Fatalf("4 clients %.2f MB/s vs 1 client %.2f MB/s: sub-linear scaling", r4.UsefulMBps, r1.UsefulMBps)
	}
}

func TestReadPoint(t *testing.T) {
	skipUnderRace(t)
	// 300 blocks on 2 servers: the figure reads a fifth of Blocks.
	tb := runFigure(t, "read", Options{Scale: 20, Blocks: 1500})[0]
	r := ReadResult{
		ColdMBps:     value(t, tb, 0, "cold MB/s").(float64),
		PrefetchMBps: value(t, tb, 0, "prefetch MB/s").(float64),
		CachedMBps:   value(t, tb, 0, "client-cached MB/s").(float64),
	}
	if ref := value(t, tb, 0, "paper MB/s"); ref != PaperColdReadMBps {
		t.Fatalf("paper reference = %v, want %v", ref, PaperColdReadMBps)
	}
	// Paper: ~1.7 MB/s cold. Accept a broad band around it.
	if r.ColdMBps < 0.8 || r.ColdMBps > 4.0 {
		t.Fatalf("cold read = %.2f MB/s, want ~1.7", r.ColdMBps)
	}
	if r.CachedMBps < r.ColdMBps*10 {
		t.Fatalf("cache speedup too small: %.2f vs %.2f", r.CachedMBps, r.ColdMBps)
	}
	// Prefetch must at least not lose to block-at-a-time cold reads; the
	// decisive 2x margin holds on unloaded hosts but is timing-sensitive,
	// so it is only enforced in strict mode.
	if r.PrefetchMBps < r.ColdMBps {
		t.Fatalf("prefetch %.2f MB/s vs cold %.2f MB/s: readahead not helping", r.PrefetchMBps, r.ColdMBps)
	}
	if benchStrict() && r.PrefetchMBps < r.ColdMBps*2 {
		t.Fatalf("prefetch %.2f MB/s vs cold %.2f MB/s: readahead below strict 2x bar", r.PrefetchMBps, r.ColdMBps)
	}
	t.Logf("cold %.2f, cached %.2f, prefetch %.2f MB/s", r.ColdMBps, r.CachedMBps, r.PrefetchMBps)
}

func TestFigure5Shape(t *testing.T) {
	skipUnderRace(t)
	tb := runFigure(t, "5", Options{Scale: 20})[0]
	cpu := func(row int) float64 { return value(t, tb, row, "CPU util").(float64) / 100 }
	stingRes := MABResult{Elapsed: value(t, tb, 0, "elapsed(1999)").(time.Duration), CPUUtilization: cpu(0)}
	extRes := MABResult{Elapsed: value(t, tb, 1, "elapsed(1999)").(time.Duration), CPUUtilization: cpu(1)}
	if value(t, tb, 0, "paper elapsed") != time.Duration(PaperMABSting) {
		t.Fatalf("paper reference missing: %v", tb.Rows[0])
	}
	if stingRes.Elapsed <= 0 || extRes.Elapsed <= 0 {
		t.Fatalf("elapsed: %v vs %v", stingRes.Elapsed, extRes.Elapsed)
	}
	// Shape: Sting beats ext2fs, and by a factor in the neighbourhood
	// of the paper's ~1.9x.
	speedup := float64(extRes.Elapsed) / float64(stingRes.Elapsed)
	if speedup < 1.2 {
		t.Fatalf("Sting speedup %.2fx, want > 1.2x (sting=%v ext=%v)", speedup, stingRes.Elapsed, extRes.Elapsed)
	}
	// CPU utilization: Sting CPU-bound, ext2fs more disk-bound.
	if stingRes.CPUUtilization <= extRes.CPUUtilization {
		t.Fatalf("CPU util: sting %.2f ≤ ext2 %.2f", stingRes.CPUUtilization, extRes.CPUUtilization)
	}
}

func TestParityAblation(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunParityAblation(800, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Without parity, useful bandwidth must improve.
	if rows[1].UsefulMBps <= rows[0].UsefulMBps {
		t.Fatalf("parity off %.2f ≤ parity on %.2f", rows[1].UsefulMBps, rows[0].UsefulMBps)
	}
	report(t, "ablate", []Table{ablationTable("parity", rows)})
}

func TestDegradedReadAblation(t *testing.T) {
	skipUnderRace(t)
	r, err := RunDegradedReadAblation(4000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.DegradedLatency <= 0 {
		t.Fatal("degraded reads failed entirely")
	}
	// No latency order is asserted: a degraded first touch decodes its
	// block from k small range reads issued in parallel, about what one
	// healthy read costs, and the one-in-four reads it slows sit inside
	// the two passes' load noise.
	if r.Reconstructions == 0 {
		t.Fatal("no reconstructions happened")
	}
	report(t, "ablate", []Table{degradedReadTable(r)})
}

// At swarmbench's -blocks 1000 the degraded-read ablation writes only a
// few fragments; the server it downs must still hold one the reads
// need, or the "one server down" row measures no reconstruction.
func TestDegradedReadAblationFewBlocks(t *testing.T) {
	skipUnderRace(t)
	r, err := RunDegradedReadAblation(1000/4*2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reconstructions == 0 {
		t.Fatal("no reconstructions happened")
	}
}

func TestReportRendering(t *testing.T) {
	out := report(t, "3", []Table{writeTable([]WriteResult{{Clients: 1, Servers: 8, RawMBps: 6.3, UsefulMBps: 5.2}}, true, 10000)})
	if !strings.Contains(out, "paper MB/s") || !strings.Contains(out, "6.4") {
		t.Fatalf("paper reference missing:\n%s", out)
	}
	out = report(t, "5", mabTables(MABResult{System: "sting", Elapsed: 9e9, CPUUtilization: 0.9}, MABResult{System: "ext", Elapsed: 18e9, CPUUtilization: 0.5}))
	if !strings.Contains(out, "speedup: 2.00x") || !strings.Contains(out, "9.4s") {
		t.Fatalf("MAB render missing speedup or paper elapsed:\n%s", out)
	}
	out = report(t, "read", []Table{readTable(ReadResult{Servers: 2, ColdMBps: 1.6, CachedMBps: 900})})
	if !strings.Contains(out, "1.7") {
		t.Fatalf("cold-read paper reference missing:\n%s", out)
	}
	// A point the paper quotes no value for prints "-".
	out = report(t, "4", []Table{writeTable([]WriteResult{{Clients: 2, Servers: 3, UsefulMBps: 5}}, false, 10000)})
	if !strings.Contains(out, " - ") {
		t.Fatalf("missing paper value not rendered as -:\n%s", out)
	}
}

// TestRegistry: -fig all runs the paper's figures first, every name
// resolves, and an unknown name lists the registry.
func TestRegistry(t *testing.T) {
	want := []string{"3", "4", "5", "read", "ablate", "erasure", "rebalance", "qos", "all"}
	if got := Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v, want %v", got, want)
	}
	if all, err := Select("all"); err != nil || len(all) != len(Figures) {
		t.Fatalf("all = %d figures, %v", len(all), err)
	}
	_, err := Select("wirepath")
	if err == nil || !strings.Contains(err.Error(), "want 3, 4, 5, read, ablate, erasure, rebalance, qos, all") {
		t.Fatalf("unknown figure error = %v", err)
	}
}

func TestWriteSweepSmall(t *testing.T) {
	res, err := RunWriteSweep([]int{1}, []int{2, 4}, WriteConfig{Blocks: 400, Scale: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("points = %d", len(res))
	}
	report(t, "3", []Table{writeTable(res, true, 400)})
	report(t, "4", []Table{writeTable(res, false, 400)})
}

func TestFragmentAndPipelineAblations(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunFragmentSizeAblation(400, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("fragment rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RawMBps <= 0 {
			t.Fatalf("%s measured %.2f MB/s", r.Name, r.RawMBps)
		}
		t.Logf("fragment %s: %.2f MB/s raw", r.Name, r.RawMBps)
	}
	// The seek-bound ordering (smallest fragments slowest) reproduces on
	// unloaded hosts but inverts under background load; strict mode only.
	if benchStrict() {
		for _, r := range rows[2:] {
			if rows[0].RawMBps >= r.RawMBps {
				t.Fatalf("128KB (%.2f) not slower than %s (%.2f)", rows[0].RawMBps, r.Name, r.RawMBps)
			}
		}
	}
	// The pipeline effect needs enough fragments for steady state.
	prows, err := RunPipelineAblation(2000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(prows) != 3 {
		t.Fatalf("pipeline rows = %d", len(prows))
	}
	for _, r := range prows {
		if r.RawMBps <= 0 {
			t.Fatalf("%s measured %.2f MB/s", r.Name, r.RawMBps)
		}
		t.Logf("pipeline %s: %.2f MB/s raw", r.Name, r.RawMBps)
	}
	if benchStrict() && prows[1].RawMBps < prows[0].RawMBps*1.2 {
		t.Fatalf("depth 2 (%.2f) not better than depth 1 (%.2f)", prows[1].RawMBps, prows[0].RawMBps)
	}
	report(t, "ablate", []Table{ablationTable("fragment size", rows), ablationTable("pipeline depth", prows)})
}

func TestClusterStoresAccessor(t *testing.T) {
	c, err := NewSimCluster(ClusterConfig{Servers: 2, DiskBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Stores()) != 2 {
		t.Fatalf("stores = %d", len(c.Stores()))
	}
}
