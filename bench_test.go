// Benchmarks regenerating the paper's evaluation as testing.B targets —
// one per figure (see DESIGN.md §4) — plus component micro-benchmarks of
// the underlying machinery at native speed. Figure benches run a reduced
// workload per iteration and report 1999-normalized MB/s via
// b.ReportMetric; cmd/swarmbench runs the full-size sweeps.
package swarm

import (
	"fmt"
	"testing"

	"swarm/internal/bench"
	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/erasure"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

const benchScale = 25

// BenchmarkFigure3RawWrite regenerates a Figure 3 point: raw aggregate
// write bandwidth, 1 client × 4 servers.
func BenchmarkFigure3RawWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunWritePoint(bench.WriteConfig{Clients: 1, Servers: 4, Blocks: 3000, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RawMBps, "MB/s-1999")
	}
}

// BenchmarkFigure3MultiClient regenerates the scaling point: 4 clients ×
// 8 servers (the paper reports 19.3 MB/s raw).
func BenchmarkFigure3MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunWritePoint(bench.WriteConfig{Clients: 4, Servers: 8, Blocks: 1500, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RawMBps, "MB/s-1999")
	}
}

// BenchmarkFigure4UsefulWrite regenerates a Figure 4 point: useful
// throughput, 1 client × 4 servers (the paper reports 5.5 MB/s).
func BenchmarkFigure4UsefulWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunWritePoint(bench.WriteConfig{Clients: 1, Servers: 4, Blocks: 3000, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.UsefulMBps, "MB/s-1999")
	}
}

// BenchmarkFigure5MAB regenerates Figure 5: the Modified Andrew Benchmark
// on Sting vs extfs. Reported metric is the Sting/ext2fs speedup (the
// paper measures 1.9x).
func BenchmarkFigure5MAB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stingRes, extRes, err := bench.RunFigure5(bench.MABConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(extRes.Elapsed)/float64(stingRes.Elapsed), "speedup")
		b.ReportMetric(stingRes.Elapsed.Seconds(), "sting-s-1999")
		b.ReportMetric(extRes.Elapsed.Seconds(), "ext2fs-s-1999")
	}
}

// BenchmarkReadBandwidth regenerates the in-text cold-read measurement
// (the paper reports 1.7 MB/s for 4 KB blocks).
func BenchmarkReadBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunReadPoint(bench.ReadConfig{Servers: 2, Blocks: 1000, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ColdMBps, "cold-MB/s-1999")
		b.ReportMetric(r.CachedMBps, "cached-MB/s")
	}
}

// BenchmarkAblationParity measures the parity tax (DESIGN.md ablation).
func BenchmarkAblationParity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunParityAblation(500, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].UsefulMBps, "parity-MB/s")
		b.ReportMetric(rows[1].UsefulMBps, "noparity-MB/s")
	}
}

// BenchmarkAblationPipeline measures the flow-control pipeline depth.
func BenchmarkAblationPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunPipelineAblation(500, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			_ = r
		}
		b.ReportMetric(rows[0].RawMBps, "depth1-MB/s")
		b.ReportMetric(rows[1].RawMBps, "depth2-MB/s")
	}
}

// BenchmarkAblationDegradedRead measures reconstruction cost.
func BenchmarkAblationDegradedRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunDegradedReadAblation(4000, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HealthyLatency.Seconds()*1000, "healthy-ms")
		b.ReportMetric(r.DegradedLatency.Seconds()*1000, "degraded-ms")
	}
}

// ------------------------- component micro-benchmarks (native speed)

// BenchmarkParityXOR measures the raw XOR kernel of parity computation:
// one 1 MB data shard folded into the paper's single XOR parity.
func BenchmarkParityXOR(b *testing.B) {
	code, err := erasure.New(erasure.KindXOR, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	parity := [][]byte{make([]byte, 1<<20)}
	src := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.AddData(0, src, parity)
	}
}

// BenchmarkWireStoreEncode measures request marshalling.
func BenchmarkWireStoreEncode(b *testing.B) {
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := wire.StoreRequest{FID: wire.MakeFID(1, uint64(i)), Data: data}
		e := wire.NewEncoder(len(data) + 64)
		msg.Encode(e)
	}
}

// BenchmarkServerStore measures the fragment store's write path on a
// memory disk (slot allocation + data + metadata commit).
func BenchmarkServerStore(b *testing.B) {
	d := disk.NewMemDisk(1 << 30)
	st, err := server.Format(d, server.Config{FragmentSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	frag := make([]byte, 64<<10)
	b.SetBytes(int64(len(frag)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fid := wire.MakeFID(1, uint64(i))
		if err := st.Store(fid, frag, false, nil); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			b.StopTimer()
			for j := i - 999; j <= i; j++ {
				if err := st.Delete(1, wire.MakeFID(1, uint64(j))); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	}
}

// BenchmarkLogAppend measures the unthrottled log append path end to end
// (entry packing, parity, async stores to in-process servers).
func BenchmarkLogAppend(b *testing.B) {
	var conns []transport.ServerConn
	for i := 0; i < 4; i++ {
		d := disk.NewMemDisk(1 << 30)
		st, err := server.Format(d, server.Config{FragmentSize: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		conns = append(conns, transport.NewLocal(wire.ServerID(i+1), st, 1))
	}
	l, _, err := core.Open(core.Config{Client: 1, Servers: conns})
	if err != nil {
		b.Fatal(err)
	}
	block := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBlock(7, block, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStingWrite measures Sting file writes (page cache + flush) at
// native speed.
func BenchmarkStingWrite(b *testing.B) {
	cl, err := NewLocalCluster(2, ServerOptions{DiskBytes: 1 << 30, FragmentSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	fs, err := client.Mount(FSConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	buf := make([]byte, 16<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create(fmt.Sprintf("/f%d", i%64))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	b.StopTimer()
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStingRead measures cached Sting reads.
func BenchmarkStingRead(b *testing.B) {
	cl, err := NewLocalCluster(2, ServerOptions{DiskBytes: 256 << 20, FragmentSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.Connect(1, ClientOptions{FragmentSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	fs, err := client.Mount(FSConfig{CacheBytes: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Unmount()
	if err := WriteFile(fs, "/data", make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open("/data")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, int64(i%16)<<16); err != nil {
			b.Fatal(err)
		}
	}
}
