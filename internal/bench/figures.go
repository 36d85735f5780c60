package bench

import (
	"fmt"
	"strings"
	"time"

	"swarm/internal/mab"
)

// Options sizes a figure run (swarmbench's -scale and -blocks).
type Options struct {
	// Scale speeds the emulated 1999 hardware up by this factor;
	// results are normalized back (1 = real time).
	Scale float64
	// Blocks is the number of 4 KB blocks each client writes in the
	// write figures; the read and ablation figures take a share of it.
	Blocks int
	// Progress, if set, receives one line per measured point.
	Progress func(string)
}

// Figure is one registered result: the paper's Figures 3, 4 and 5, the
// in-text cold read, and the ablations and beyond-paper figures.
type Figure struct {
	Name  string // the swarmbench -fig name
	Title string
	Run   func(Options) ([]Table, error)
}

// Figures is the registry, in the order swarmbench -fig all runs it.
var Figures = []Figure{
	{"3", "Raw write bandwidth (paper Figure 3)", writeFigure(Figure3Servers, true)},
	{"4", "Useful write throughput (paper Figure 4)", writeFigure(Figure4Servers, false)},
	{"5", "Modified Andrew Benchmark vs ext2fs (paper Figure 5)", func(o Options) ([]Table, error) {
		s, e, err := RunFigure5(MABConfig{Scale: o.Scale})
		if err != nil {
			return nil, err
		}
		return mabTables(s, e), nil
	}},
	{"read", "Cold 4 KB read bandwidth (paper §3.4 text)", func(o Options) ([]Table, error) {
		r, err := RunReadPoint(ReadConfig{Servers: 2, Blocks: o.Blocks / 5, Scale: o.Scale})
		if err != nil {
			return nil, err
		}
		return []Table{readTable(r)}, nil
	}},
	{"ablate", "Design ablations: parity, fragment size, pipeline depth, degraded reads", runAblations},
	{"erasure", "Erasure geometries: write amplification vs reconstruction cost", func(Options) ([]Table, error) {
		rows, err := RunErasureSweep([][2]int{{4, 1}, {4, 2}, {8, 2}}, ErasureConfig{})
		if err != nil {
			return nil, err
		}
		return []Table{erasureTable(rows)}, nil
	}},
	{"rebalance", "Elastic drain: foreground appends while rebalancing", func(Options) ([]Table, error) {
		r, err := RunRebalanceBench(RebalanceConfig{})
		if err != nil {
			return nil, err
		}
		return []Table{rebalanceTable(r)}, nil
	}},
	{"qos", "QoS: multi-tenant overload isolation", func(o Options) ([]Table, error) {
		rows, err := RunQoS(QoSBenchConfig{Scale: o.Scale * 2.5}, o.Progress)
		if err != nil {
			return nil, err
		}
		return qosTables(rows), nil
	}},
}

// Names lists the registered figure names and "all", in run order.
func Names() []string {
	names := make([]string, 0, len(Figures)+1)
	for _, f := range Figures {
		names = append(names, f.Name)
	}
	return append(names, "all")
}

// Select returns the named figure, or every figure for "all".
func Select(name string) ([]Figure, error) {
	if name == "all" {
		return Figures, nil
	}
	for _, f := range Figures {
		if f.Name == name {
			return []Figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want %s)", name, strings.Join(Names(), ", "))
}

// writeFigure runs the paper's clients × servers write sweep and
// reports raw (Figure 3) or useful (Figure 4) bandwidth.
func writeFigure(servers []int, raw bool) func(Options) ([]Table, error) {
	return func(o Options) ([]Table, error) {
		res, err := RunWriteSweep(Figure3Clients, servers, WriteConfig{Blocks: o.Blocks, Scale: o.Scale}, o.Progress)
		if err != nil {
			return nil, err
		}
		return []Table{writeTable(res, raw, o.Blocks)}, nil
	}
}

// writeTable is the series the paper plots: one row per (clients,
// servers) point of blocks 4 KB blocks per client, beside the paper's
// quoted value where one exists.
func writeTable(results []WriteResult, raw bool, blocks int) Table {
	t := Table{Title: "Figure 4 — Useful write throughput (application bytes only)", Columns: []Column{
		{Name: "clients"}, {Name: "servers"},
		{Name: "MB/s", Unit: "MB/s", format: "%.2f"},
		{Name: "paper MB/s", Unit: "MB/s", format: "%.1f"},
		{Name: "elapsed(1999)", Unit: "ns"},
	}}
	refs := PaperFigure4
	if raw {
		t.Title = fmt.Sprintf("Figure 3 — Raw write bandwidth (%d 4KB blocks per client; includes metadata + parity)", blocks)
		refs = PaperFigure3
	}
	for _, r := range results {
		mbps := r.UsefulMBps
		if raw {
			mbps = r.RawMBps
		}
		t.add(r.Clients, r.Servers, mbps, paperRef(refs, r.Clients, r.Servers), r.Elapsed.Round(time.Millisecond))
	}
	return t
}

// mabTables renders Figure 5: elapsed time and CPU utilization beside
// the paper's, then the per-phase split.
func mabTables(s, e MABResult) []Table {
	pct := func(name string) Column { return Column{Name: name, Unit: "%", format: "%.0f%%"} }
	t := Table{
		Title: fmt.Sprintf("Figure 5 — Modified Andrew Benchmark (%d files, %d KB)", s.Files, s.Bytes>>10),
		Columns: []Column{{Name: "system"}, {Name: "elapsed(1999)", Unit: "ns"}, pct("CPU util"),
			{Name: "paper elapsed", Unit: "ns"}, pct("paper util")},
		Notes: []string{fmt.Sprintf("speedup: %.2fx (paper: %.2fx)",
			float64(e.Elapsed)/float64(s.Elapsed), PaperMABExt2/PaperMABSting)},
	}
	t.add(s.System, s.Elapsed.Round(10*time.Millisecond), s.CPUUtilization*100, time.Duration(PaperMABSting), PaperMABStingCPU*100)
	t.add(e.System, e.Elapsed.Round(10*time.Millisecond), e.CPUUtilization*100, time.Duration(PaperMABExt2), PaperMABExt2CPU*100)
	phases := Table{Title: "phases (Sting vs ext2fs):", Columns: []Column{
		{Name: "phase"}, {Name: "Sting", Unit: "ns"}, {Name: "ext2fs", Unit: "ns"}}}
	for i, name := range mab.PhaseNames {
		phases.add(name, s.Phases[i].Round(time.Millisecond), e.Phases[i].Round(time.Millisecond))
	}
	return []Table{t, phases}
}

// readTable renders the cold, prefetched and cached read bandwidths.
func readTable(r ReadResult) Table {
	t := Table{Title: "Cold 4 KB read bandwidth (§3.4 in-text; prefetch = the paper's proposed fix)", Columns: []Column{
		{Name: "servers"},
		{Name: "cold MB/s", Unit: "MB/s", format: "%.2f"},
		{Name: "paper MB/s", Unit: "MB/s", format: "%.1f"},
		{Name: "prefetch MB/s", Unit: "MB/s", format: "%.2f"},
		{Name: "client-cached MB/s", Unit: "MB/s", format: "%.0f"},
	}}
	t.add(r.Servers, r.ColdMBps, PaperColdReadMBps, r.PrefetchMBps, r.CachedMBps)
	return t
}

// runAblations runs the four design ablations at a quarter (degraded
// reads: half) of the write figures' block count.
func runAblations(o Options) ([]Table, error) {
	ab := o.Blocks / 4
	var out []Table
	for _, a := range []struct {
		title string
		run   func(int, float64) ([]AblationResult, error)
	}{
		{"Ablation — parity on/off (1 client, 4 servers)", RunParityAblation},
		{"Ablation — fragment size (2 clients, 1 server: server-bound)", RunFragmentSizeAblation},
		{"Ablation — pipeline depth (1 client, 1 server: server-bound)", RunPipelineAblation},
	} {
		rows, err := a.run(ab, o.Scale)
		if err != nil {
			return nil, err
		}
		out = append(out, ablationTable(a.title, rows))
	}
	dr, err := RunDegradedReadAblation(ab*2, o.Scale)
	if err != nil {
		return nil, err
	}
	return append(out, degradedReadTable(dr)), nil
}

func ablationTable(title string, rows []AblationResult) Table {
	t := Table{Title: title, Columns: []Column{{Name: "configuration"},
		{Name: "raw MB/s", Unit: "MB/s", format: "%.2f"}, {Name: "useful MB/s", Unit: "MB/s", format: "%.2f"}}}
	for _, r := range rows {
		t.add(r.Name, r.RawMBps, r.UsefulMBps)
	}
	return t
}

func degradedReadTable(r DegradedReadResult) Table {
	t := Table{
		Title:   fmt.Sprintf("Degraded reads (first-touch latency per fragment, %d servers)", r.Servers),
		Columns: []Column{{Name: "case"}, {Name: "latency", Unit: "ns"}, {Name: "reconstructions"}},
	}
	t.add("all servers up", r.HealthyLatency.Round(10*time.Microsecond), nil)
	t.add("one server down (reconstruction)", r.DegradedLatency.Round(10*time.Microsecond), r.Reconstructions)
	return t
}

func erasureTable(rows []ErasureResult) Table {
	t := Table{Title: "Erasure geometries — write amplification vs reconstruction cost (m servers down)", Columns: []Column{
		{Name: "(k,m)"}, {Name: "codec"},
		{Name: "write amp", Unit: "ratio", format: "%.3f"}, {Name: "ideal", Unit: "ratio", format: "%.3f"},
		{Name: "lost frags"}, {Name: "recon total", Unit: "ns"}, {Name: "recon/frag", Unit: "ns"},
	}}
	for _, r := range rows {
		t.add(fmt.Sprintf("(%d,%d)", r.K, r.M), r.Codec, r.WriteAmp, float64(r.K+r.M)/float64(r.K), r.LostFragments,
			r.ReconTime.Round(time.Millisecond), r.ReconPerFrag.Round(time.Millisecond))
	}
	return t
}

func rebalanceTable(r RebalanceResult) Table {
	t := Table{Title: "Elastic drain — foreground append throughput while rebalancing", Columns: []Column{
		{Name: "cluster"},
		{Name: "steady MB/s", Unit: "MB/s", format: "%.2f"}, {Name: "draining MB/s", Unit: "MB/s", format: "%.2f"},
		{Name: "ratio", Unit: "ratio", format: "%.2f"},
		{Name: "moved frags"}, {Name: "moved KB", Unit: "KB"}, {Name: "rebalance time", Unit: "ns"},
	}}
	t.add(fmt.Sprintf("%d+1 srv RS(%d,%d)", r.Servers, r.Width-r.Parity, r.Parity), r.SteadyMBps, r.DrainMBps,
		r.Ratio, r.Moved, r.MovedBytes>>10, r.Rebalance.Round(time.Millisecond))
	return t
}

// qosTables renders the per-tenant sweep and the isolation summary.
func qosTables(rows []QoSResult) []Table {
	t := Table{Title: "QoS — multi-tenant overload (light vs greedy tenant, shared cluster)", Columns: []Column{
		{Name: "mode"}, {Name: "tenant"}, {Name: "writers"},
		{Name: "MB/s", Unit: "MB/s", format: "%.1f"},
		{Name: "p50 ms", Unit: "ms", format: "%.2f"}, {Name: "p99 ms", Unit: "ms", format: "%.2f"},
		{Name: "ops"}, {Name: "sheds"}, {Name: "busy-retries"},
	}}
	for _, r := range rows {
		for _, tn := range r.Tenants {
			t.add(r.Mode, tn.Tenant, tn.Writers, tn.MBps, tn.P50MS, tn.P99MS, tn.Ops, tn.Sheds, tn.BusyRetries)
		}
		t.add(r.Mode, "(all)", nil, r.AggregateMBps, nil, nil, nil, nil, nil)
	}
	iso := Table{Title: "QoS isolation — the light tenant against its solo baseline", Columns: []Column{
		{Name: "mode"},
		{Name: "light MB/s vs solo", Unit: "%", format: "%.0f%%"},
		{Name: "light p99 vs solo", Unit: "x", format: "%.1fx"},
		{Name: "aggregate vs FIFO", Unit: "%", format: "%.0f%%"},
	}}
	for _, s := range QoSIsolationSummary(rows) {
		iso.add(s.Mode, 100*s.LightMBpsFrac, s.LightP99X, 100*s.AggVsFIFO)
	}
	return []Table{t, iso}
}
