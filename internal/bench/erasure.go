// Erasure-coding benchmark: what a (k, m) geometry costs on the write
// path (amplification: stored bytes per useful byte) and what it costs
// to reconstruct after the worst tolerated failure (m servers dead at
// once). Like the reconstruction benchmark, the decode phase injects
// explicit per-server latency through transport.Flaky, so the shapes
// are stable on loaded hosts and under the race detector.
package bench

import (
	"fmt"
	"time"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/erasure"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// ErasureConfig parameterizes the (k, m) sweep.
type ErasureConfig struct {
	// Stripes is how many closed stripes to write per configuration.
	Stripes int
	// Latency is the injected per-request server latency during the
	// reconstruction phase.
	Latency time.Duration
}

// ErasureResult is one (k, m) point.
type ErasureResult struct {
	K, M  int
	Codec string
	// UsefulBytes is application payload appended; StoredBytes is what
	// the servers hold for it (data + parity + headers).
	UsefulBytes, StoredBytes int64
	WriteAmp                 float64
	// LostFragments were reconstructed with m servers down — every
	// decode runs at exactly k survivors, the worst tolerated case.
	LostFragments int
	ReconTime     time.Duration
	ReconPerFrag  time.Duration
}

// RunErasureBench measures one (k, m) geometry: write amplification on
// a healthy cluster of k+m servers, then reconstruction cost with m
// servers down simultaneously.
func RunErasureBench(k, m int, cfg ErasureConfig) (ErasureResult, error) {
	if cfg.Stripes == 0 {
		cfg.Stripes = 3
	}
	if cfg.Latency == 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	const fragSize = 4096
	client := wire.ClientID(1)
	width := k + m

	kind := erasure.KindXOR
	if m > 1 {
		kind = erasure.KindRS
	}

	flakies := make([]*transport.Flaky, width)
	conns := make([]transport.ServerConn, width)
	for i := 0; i < width; i++ {
		st, err := server.Format(disk.NewMemDisk(8<<20), server.Config{FragmentSize: fragSize})
		if err != nil {
			return ErasureResult{}, fmt.Errorf("format server %d: %w", i, err)
		}
		flakies[i] = transport.NewFlaky(transport.NewLocal(wire.ServerID(i+1), st, client))
		conns[i] = flakies[i]
	}
	log, _, err := core.Open(core.Config{
		Client: client, Servers: conns, FragmentSize: fragSize,
		ParityShards: m, Codec: kind,
	})
	if err != nil {
		return ErasureResult{}, err
	}
	defer log.Close()

	block := make([]byte, 600)
	var useful int64
	wantSeqs := uint64(cfg.Stripes * width)
	for log.NextPos().Seq < wantSeqs {
		if _, err := log.AppendBlock(7, block, nil); err != nil {
			return ErasureResult{}, err
		}
		useful += int64(len(block))
	}
	if err := log.Sync(); err != nil {
		return ErasureResult{}, err
	}

	// Stored footprint: every fragment frame held by every server.
	var stored int64
	for _, c := range conns {
		fids, err := c.List(client)
		if err != nil {
			return ErasureResult{}, err
		}
		for _, fid := range fids {
			size, ok, err := c.Has(fid)
			if err != nil || !ok {
				return ErasureResult{}, fmt.Errorf("stat fragment %v: %w", fid, err)
			}
			stored += int64(size)
		}
	}

	// Which closed-stripe fragments die with the first m servers.
	var lost []wire.FID
	for i := 0; i < m; i++ {
		fids, err := conns[i].List(client)
		if err != nil {
			return ErasureResult{}, err
		}
		for _, fid := range fids {
			if fid.Seq() < wantSeqs {
				lost = append(lost, fid)
			}
		}
	}
	if len(lost) == 0 {
		return ErasureResult{}, fmt.Errorf("victim servers hold no closed-stripe fragments")
	}

	// Kill m servers at once and reconstruct everything they held:
	// every decode sees exactly k survivors.
	for i := 0; i < m; i++ {
		flakies[i].SetDown(true)
	}
	for _, fl := range flakies {
		fl.SetLatency(cfg.Latency)
	}
	start := time.Now()
	for _, fid := range lost {
		if _, _, err := log.FetchFragment(fid); err != nil {
			return ErasureResult{}, fmt.Errorf("reconstruct %v with %d servers down: %w", fid, m, err)
		}
	}
	recon := time.Since(start)

	return ErasureResult{
		K: k, M: m, Codec: kind.String(),
		UsefulBytes: useful, StoredBytes: stored,
		WriteAmp:      float64(stored) / float64(useful),
		LostFragments: len(lost),
		ReconTime:     recon,
		ReconPerFrag:  recon / time.Duration(len(lost)),
	}, nil
}

// RunErasureSweep runs the benchmark at each (k, m) geometry.
func RunErasureSweep(geometries [][2]int, cfg ErasureConfig) ([]ErasureResult, error) {
	var out []ErasureResult
	for _, g := range geometries {
		r, err := RunErasureBench(g[0], g[1], cfg)
		if err != nil {
			return out, fmt.Errorf("RS(%d,%d): %w", g[0], g[1], err)
		}
		out = append(out, r)
	}
	return out, nil
}
