package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}

// p99OK reports whether n samples leave at least ten beyond the 99th
// percentile.
func p99OK(n int) bool { return n >= 1000 }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opLatencies are the timings behind op_p50_us and op_p99_us: the 64 KB
// WriteAt calls of bulk_write, the 4 KB reads of every other workload.
func (r *runResult) opLatencies() []time.Duration {
	if r.w.bulkMBPerSec > 0 {
		return r.s.writes
	}
	return r.s.reads
}

// goodputWindows is how many equal slices of the timed phase goodput is
// measured over; the reported figure is their median, so a transient
// stall of the shared host moves one slice rather than the result.
const goodputWindows = 10

// opBytes is the user bytes one timed operation moves.
func (r *runResult) opBytes() float64 {
	if r.w.bulkMBPerSec > 0 {
		return writeChunk
	}
	return blockSize
}

// goodputMBs is the median over goodputWindows slices of the phase of
// the user MB/s moved by operations that succeeded within the
// workload's latency limit. A bulk_write whose final Sync failed has
// acknowledged nothing and scores zero.
func (r *runResult) goodputMBs() float64 {
	if r.w.bulkMBPerSec > 0 && r.ackB == 0 {
		return 0
	}
	win := r.phase / goodputWindows
	if win <= 0 {
		return 0
	}
	counts := make([]float64, goodputWindows)
	for _, at := range r.s.goodAt {
		counts[min(int(at/win), goodputWindows-1)]++
	}
	sort.Float64s(counts)
	med := (counts[goodputWindows/2-1] + counts[goodputWindows/2]) / 2
	return med * r.opBytes() / 1e6 / win.Seconds()
}

// cpuPerOp is the process's CPU time (clients and servers) per timed
// operation.
func (r *runResult) cpuPerOp() float64 {
	return ratio(us(r.after.cpu-r.before.cpu), float64(r.s.attempted))
}

func endToEnd(r *runResult) []metric {
	lat := r.opLatencies()
	return []metric{
		{"setup_s", quantile(append([]time.Duration(nil), r.setup...), 0.5).Seconds(), "s"},
		{"op_p50_us", us(quantile(lat, 0.5)), "us"},
		{"cpu_us_per_op", r.cpuPerOp(), "us"},
		{"space_per_user_byte", ratio(float64(r.slots*fragSize), float64(r.userB)), "ratio"},
	}
}

// line prints one named metric with its sample count; a p99 without ten
// samples beyond it is printed as omitted rather than as a lower
// percentile under the same name.
func line(out io.Writer, name string, ds []time.Duration, q float64, unit string) {
	n := len(ds)
	if n == 0 || (q > 0.5 && !p99OK(n)) {
		fmt.Fprintf(out, "  %-22s omitted (n=%d)\n", name, n)
		return
	}
	v := quantile(ds, q)
	val := us(v)
	if unit == "ms" {
		val = ms(v)
	}
	fmt.Fprintf(out, "  %-22s %12.3f %-6s n=%d\n", name, val, unit, n)
}

func printEndToEnd(out io.Writer, r *runResult, e2e []metric) {
	fmt.Fprintf(out, "perfbench %s: %s\n", r.w.name, r.w.why)
	fmt.Fprintf(out, "  untraced, %d servers RS(%d,%d) FileDisk+fsync, %d clients, phase %.2fs\n",
		numServers, dataShards, parityShards, numClients, r.phase.Seconds())
	fmt.Fprintf(out, "  setup runs %v, preload %.2fs, read-back %.2fs of %d MB\n",
		r.setup, r.preload.Seconds(), r.verify.Seconds(), r.verified>>20)
	fmt.Fprintln(out, "end-to-end, with sample counts:")
	fmt.Fprintf(out, "  %-22s %12.4f %-6s n=%d\n", "setup_s", e2e[0].value, "s", len(r.setup))
	if r.w.bulkMBPerSec > 0 {
		fmt.Fprintf(out, "  %-22s %12.3f %-6s n=%d (whole phase %.3f)\n", "write_mbps", r.goodputMBs(), "MB/s", len(r.s.writes),
			float64(r.ackB)/1e6/r.phase.Seconds())
	}
	if len(r.s.writes) > 0 {
		line(out, "write_p50_us", r.s.writes, 0.5, "us")
		line(out, "write_p99_us", r.s.writes, 0.99, "us")
	}
	if len(r.s.syncs) > 0 {
		line(out, "sync_p50_ms", r.s.syncs, 0.5, "ms")
		line(out, "sync_p99_ms", r.s.syncs, 0.99, "ms")
	}
	if len(r.s.reads) > 0 {
		line(out, "read_p50_us", r.s.reads, 0.5, "us")
		line(out, "read_p99_us", r.s.reads, 0.99, "us")
		fmt.Fprintf(out, "  %-22s %12.1f %-6s n=%d (limit %v)\n", "read_goodput_ops",
			r.goodputMBs()*1e6/r.opBytes(), "1/s", r.s.attempted, r.w.limit)
	}
	fmt.Fprintf(out, "  %-22s %12.4f %-6s (%d slots of %d MB / %d MB user)\n", "space_per_user_byte",
		e2e[3].value, "ratio", r.slots, fragSize>>20, r.userB>>20)
	fmt.Fprintf(out, "  %-22s %12.4f %-6s n=%d\n", "fail_ratio", ratio(float64(r.s.failed), float64(r.s.attempted)), "ratio", r.s.attempted)
	fmt.Fprintf(out, "  %-22s %12.3f %-6s n=%d\n", "cpu_us_per_op", r.cpuPerOp(), "us", r.s.attempted)
	fmt.Fprintf(out, "  %-22s %12.3f %-6s (median of %d slices of the phase)\n", "goodput_mb_s", r.goodputMBs(), "MB/s", goodputWindows)
	fmt.Fprintln(out, "end-to-end, gated (result line):")
	for _, m := range e2e {
		fmt.Fprintf(out, "  %-22s %12.4f %s\n", m.name, m.value, m.unit)
	}
}

// spanStats derives the span-based figures of the traced run.
type spanStats struct {
	count    [numSpanKinds]int
	busy     [numSpanKinds]time.Duration
	rpcLat   []time.Duration // every transport call
	readLat  []time.Duration
	storeLat []time.Duration
	self     []time.Duration // per Sting op: its span minus the union of its children
	opTotal  time.Duration
	selfSum  time.Duration
	orphans  int // transport reads that outlived their operation
	outside  int // children not inside their parent's interval (should be 0)
}

func analyzeSpans(spans []span) spanStats {
	var st spanStats
	children := make(map[uint64][]span)
	for _, s := range spans {
		d := time.Duration(s.end - s.start)
		st.count[s.kind]++
		st.busy[s.kind] += d
		switch s.kind {
		case spanRPCRead:
			st.readLat = append(st.readLat, d)
			st.rpcLat = append(st.rpcLat, d)
			if s.parent == 0 {
				st.orphans++
			} else {
				children[s.parent] = append(children[s.parent], s)
			}
		case spanRPCStore:
			st.storeLat = append(st.storeLat, d)
			st.rpcLat = append(st.rpcLat, d)
		}
	}
	for _, s := range spans {
		if !s.kind.isOp() {
			continue
		}
		// Union of child intervals (gathers overlap), clipped to the op.
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, reach int64 = 0, s.start
		for _, k := range kids {
			if k.start < s.start || k.end > s.end {
				st.outside++
			}
			lo, hi := max(k.start, reach, s.start), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		d := time.Duration(s.end - s.start)
		self := d - time.Duration(covered)
		st.self = append(st.self, self)
		st.opTotal += d
		st.selfSum += self
	}
	return st
}

// perLayer derives the per-layer metrics of traced run r; plain holds
// the untraced run's end-to-end metrics and plainGoodput its goodput,
// for the tracing overhead.
func perLayer(r *runResult, sp spanStats, plain []metric, plainGoodput float64) []metric {
	b, a := r.before, r.after
	phase := r.phase.Seconds()
	userMoved := float64(a.stingBytesW - b.stingBytesW + a.stingBytesR - b.stingBytesR)
	stingReads := float64(sp.count[spanRead])
	srvStores := float64(a.srv.Stores - b.srv.Stores)
	srvSyncs := float64(a.srv.Syncs - b.srv.Syncs)
	hits := float64(a.srv.ReadHits - b.srv.ReadHits)
	misses := float64(a.srv.ReadMisses - b.srv.ReadMisses)
	dk := diskCounts{
		writeCalls: a.disk.writeCalls - b.disk.writeCalls, writeBytes: a.disk.writeBytes - b.disk.writeBytes,
		writeNanos: a.disk.writeNanos - b.disk.writeNanos, readCalls: a.disk.readCalls - b.disk.readCalls,
		readBytes: a.disk.readBytes - b.disk.readBytes, readNanos: a.disk.readNanos - b.disk.readNanos,
		syncs: a.disk.syncs - b.disk.syncs, syncNanos: a.disk.syncNanos - b.disk.syncNanos,
	}
	wireIn := float64(a.wireIn - b.wireIn)
	wireOut := float64(a.wireOut - b.wireOut)
	traced := endToEnd(r)
	clientSeconds := phase * numClients
	return []metric{
		{"loadgen.late_p99_us", us(quantile(r.s.late, 0.99)), "us"},
		{"loadgen.offered_ops_s", float64(r.s.attempted) / phase, "1/s"},

		{"sting.read_calls", stingReads, "count"},
		{"sting.write_calls", float64(sp.count[spanWrite]), "count"},
		{"sting.sync_calls", float64(sp.count[spanSync]), "count"},
		{"sting.flushes", float64(a.stingFlushes - b.stingFlushes), "count"},
		{"sting.inodes_out", float64(a.stingInodes - b.stingInodes), "count"},
		{"sting.util", (sp.busy[spanRead] + sp.busy[spanWrite] + sp.busy[spanSync]).Seconds() / clientSeconds, "ratio"},

		{"blockcache.miss_ratio", ratio(float64(sp.count[spanRPCRead]), stingReads), "ratio"},

		{"core.bytes_shipped_per_user_byte", ratio(float64(a.bytesStored-b.bytesStored), float64(a.blockBytes-b.blockBytes)), "ratio"},
		{"core.fragments_sealed", float64(a.sealed - b.sealed), "count"},
		{"core.reconstructions", float64(a.recons - b.recons), "count"},
		{"core.self_us_p50", us(quantile(sp.self, 0.5)), "us"},

		{"fragio.stores", float64(a.stores - b.stores), "count"},
		{"fragio.reads", float64(a.reads - b.reads), "count"},
		{"fragio.fetches", float64(a.fetches - b.fetches), "count"},
		{"fragio.gather_members", float64(a.gatherMembers - b.gatherMembers), "count"},
		{"fragio.kgathers", float64(a.kgathers - b.kgathers), "count"},
		{"fragio.stragglers", float64(a.stragglers - b.stragglers), "count"},
		{"fragio.store_retries", float64(a.storeRetries - b.storeRetries), "count"},

		{"transport.store_calls", float64(sp.count[spanRPCStore]), "count"},
		{"transport.read_calls", float64(sp.count[spanRPCRead]), "count"},
		{"transport.call_p50_us", us(quantile(sp.rpcLat, 0.5)), "us"},
		{"transport.call_p99_us", us(quantile(sp.rpcLat, 0.99)), "us"},
		{"transport.util", (sp.busy[spanRPCRead] + sp.busy[spanRPCStore]).Seconds() / clientSeconds, "ratio"},
		{"transport.retries", float64(a.retries - b.retries), "count"},
		{"transport.fast_fails", float64(a.fastFails - b.fastFails), "count"},

		{"wire.bytes_in", wireIn, "bytes"},
		{"wire.bytes_out", wireOut, "bytes"},
		{"wire.bytes_per_user_byte", ratio(wireIn+wireOut, userMoved), "ratio"},

		{"server.stores", srvStores, "count"},
		{"server.syncs_per_store", ratio(srvSyncs, srvStores), "ratio"},
		{"server.sync_batch", ratio(float64(a.srv.SyncRequests-b.srv.SyncRequests), srvSyncs), "ratio"},
		{"server.read_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"server.disk_bytes_per_served_byte", ratio(float64(dk.readBytes), float64(a.rpcReadBytes-b.rpcReadBytes)), "ratio"},
		{"server.readahead_loads", float64(a.srv.ReadaheadLoads - b.srv.ReadaheadLoads), "count"},

		{"disk.write_calls", float64(dk.writeCalls), "count"},
		{"disk.write_bytes_per_user_byte", ratio(float64(dk.writeBytes), userMoved), "ratio"},
		{"disk.syncs", float64(dk.syncs), "count"},
		{"disk.read_bytes", float64(dk.readBytes), "bytes"},
		{"disk.util", time.Duration(dk.readNanos+dk.writeNanos+dk.syncNanos).Seconds() / (phase * numServers), "ratio"},

		{"runtime.cpu_s", (a.cpu - b.cpu).Seconds(), "s"},
		{"runtime.alloc_mb", float64(a.alloc-b.alloc) / (1 << 20), "MB"},
		{"runtime.gc_cycles", float64(a.gcCount - b.gcCount), "count"},

		{"trace.spans", float64(len(sp.self) + len(sp.rpcLat)), "count"},
		{"trace.orphan_reads", float64(sp.orphans), "count"},
		{"trace.residual_share", ratio(float64(sp.selfSum), float64(sp.opTotal)), "ratio"},
		{"trace.overhead_op_p50_us", traced[1].value - plain[1].value, "us"},
		{"trace.overhead_cpu_us_per_op", traced[2].value - plain[2].value, "us"},
		{"trace.overhead_goodput_mb_s", r.goodputMBs() - plainGoodput, "MB/s"},
	}
}

func printPerLayer(out io.Writer, r *runResult, sp spanStats, plain, layer []metric, spanFile string) {
	fmt.Fprintln(out, "tracing overhead (traced minus untraced):")
	for i, m := range endToEnd(r) {
		fmt.Fprintf(out, "  %-22s %+12.4f %s\n", m.name, m.value-plain[i].value, m.unit)
	}
	fmt.Fprintf(out, "perfbench %s: traced run, phase %.2fs, spans in %s\n", r.w.name, r.phase.Seconds(), spanFile)
	fmt.Fprintln(out, "per-layer:")
	for _, m := range layer {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(out, "per-layer detail (omitted where the workload has no such calls or too few for a p99):")
	line(out, "transport.store_p50_ms", sp.storeLat, 0.5, "ms")
	line(out, "transport.store_p99_ms", sp.storeLat, 0.99, "ms")
	line(out, "transport.read_p50_us", sp.readLat, 0.5, "us")
	line(out, "transport.read_p99_us", sp.readLat, 0.99, "us")
	syncs := make([]time.Duration, len(r.syncLats))
	for i, ns := range r.syncLats {
		syncs[i] = time.Duration(ns)
	}
	line(out, "disk.sync_p50_ms", syncs, 0.5, "ms")
	line(out, "disk.sync_p99_ms", syncs, 0.99, "ms")
	if n := r.after.srv.Stores - r.before.srv.Stores; n > 0 {
		fmt.Fprintf(out, "  %-22s %12.3f %-6s n=%d\n", "server.store_avg_ms",
			ms(time.Duration((r.after.srv.StoreNanos-r.before.srv.StoreNanos)/n)), "ms", n)
	}
	fmt.Fprintf(out, "  sting op time %.3fs, of which %.3fs (%.1f%%) lies outside any transport read span (residual: Sting, block cache, core, fragio, waits); %d transport reads outlived their op; %d children fell outside their parent\n",
		sp.opTotal.Seconds(), sp.selfSum.Seconds(), 100*ratio(float64(sp.selfSum), float64(sp.opTotal)), sp.orphans, sp.outside)
	fmt.Fprintln(out, "  transport stores are shipped by the fragio pipeline asynchronously and carry no parent operation")
}
