package bench

import (
	"errors"
	"fmt"
	"time"

	"swarm/internal/core"
	"swarm/internal/model"
	"swarm/internal/transport"
)

// AblationResult is one row of an ablation table.
type AblationResult struct {
	Name       string
	RawMBps    float64
	UsefulMBps float64
}

// ablation measures one write point per configuration and names each
// row after it.
func ablation(configs []WriteConfig, name func(WriteConfig) string) ([]AblationResult, error) {
	var out []AblationResult
	for _, cfg := range configs {
		r, err := RunWritePoint(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, AblationResult{Name: name(cfg), RawMBps: r.RawMBps, UsefulMBps: r.UsefulMBps})
	}
	return out, nil
}

// RunParityAblation measures the cost of computed redundancy: useful
// bandwidth at 4 servers with and without parity (DESIGN.md ablation:
// parity is the price of tolerating a server failure).
func RunParityAblation(blocks int, scale float64) ([]AblationResult, error) {
	var configs []WriteConfig
	for _, off := range []bool{false, true} {
		configs = append(configs, WriteConfig{Clients: 1, Servers: 4, Blocks: blocks, Scale: scale, DisableParity: off})
	}
	return ablation(configs, func(c WriteConfig) string {
		if c.DisableParity {
			return "parity off (width 4: 4 data)"
		}
		return "parity on (width 4: 3 data + 1 parity)"
	})
}

// RunFragmentSizeAblation sweeps the fragment size (the paper fixes
// 1 MB). The server-bound configuration (two clients sharing one server)
// exposes both sides of the tradeoff: small fragments pay a disk seek per
// store, oversized fragments stall the write pipeline.
func RunFragmentSizeAblation(blocks int, scale float64) ([]AblationResult, error) {
	var configs []WriteConfig
	for _, size := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20} {
		configs = append(configs, WriteConfig{Clients: 2, Servers: 1, Blocks: blocks, Scale: scale, FragmentSize: size})
	}
	return ablation(configs, func(c WriteConfig) string { return fmt.Sprintf("fragment size %d KB", c.FragmentSize>>10) })
}

// RunPipelineAblation sweeps the per-server pipeline depth (the paper's
// flow control keeps "both the disk and the network busy" with depth 2).
// The single-server configuration makes the server the bottleneck, where
// the network/disk overlap actually shows; with many servers the client
// CPU hides it.
func RunPipelineAblation(blocks int, scale float64) ([]AblationResult, error) {
	var configs []WriteConfig
	for _, depth := range []int{1, 2, 4} {
		configs = append(configs, WriteConfig{Clients: 1, Servers: 1, Blocks: blocks, Scale: scale, PipelineDepth: depth})
	}
	return ablation(configs, func(c WriteConfig) string { return fmt.Sprintf("pipeline depth %d", c.PipelineDepth) })
}

// DegradedReadResult compares first-touch read latency with all servers
// up against reads that must reconstruct a fragment from its stripe.
// (Throughput barely degrades: a reconstruction bulk-reads the surviving
// fragments once and then serves every block of the rebuilt fragment
// from memory, so the cost shows in first-touch latency, not bandwidth.)
type DegradedReadResult struct {
	// HealthyLatency is the mean 1999-normalized time to read the first
	// block of a fragment from a live server.
	HealthyLatency time.Duration
	// DegradedLatency is the same with the fragment's server down: the
	// read triggers a full stripe reconstruction.
	DegradedLatency time.Duration
	// Reconstructions counts how many fragments were rebuilt.
	Reconstructions int64
	Servers         int
}

// RunDegradedReadAblation measures reconstruction cost (§2.3.3): the
// first block of each fragment is read cold, with all servers up and
// with one server down. blocks sizes the written log.
func RunDegradedReadAblation(blocks int, scale float64) (DegradedReadResult, error) {
	const servers = 4
	params := model.Paper1999().Scaled(scale)
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:   servers,
		DiskBytes: 256 << 20,
		Params:    params,
	})
	if err != nil {
		return DegradedReadResult{}, err
	}
	writeEnv := cluster.Client(1)
	wlog, _, err := core.Open(core.Config{
		Client:       1,
		Servers:      writeEnv.Conns,
		CPU:          writeEnv.CPU,
		FragOverhead: params.ClientFragOverhead,
	})
	if err != nil {
		return DegradedReadResult{}, err
	}
	addrs, err := appendBlocks(wlog, blocks, blockSize)
	if err != nil {
		return DegradedReadResult{}, err
	}
	if err := wlog.Close(); err != nil {
		return DegradedReadResult{}, err
	}
	// One representative (first-seen) block address per fragment.
	perFrag := make(map[uint64]core.BlockAddr)
	var order []core.BlockAddr
	for _, a := range addrs {
		if _, ok := perFrag[a.FID.Seq()]; !ok {
			perFrag[a.FID.Seq()] = a
			order = append(order, a)
		}
	}

	// measure opens a fresh log (cold caches) and reads one block per
	// fragment, optionally with one server down.
	measure := func(down bool) (time.Duration, int64, error) {
		env := cluster.Client(1)
		flakies := make([]*transport.Flaky, len(env.Conns))
		conns := make([]transport.ServerConn, len(env.Conns))
		for i, c := range env.Conns {
			flakies[i] = transport.NewFlaky(c)
			conns[i] = flakies[i]
		}
		log, _, err := core.Open(core.Config{
			Client:       1,
			Servers:      conns,
			CPU:          env.CPU,
			FragOverhead: params.ClientFragOverhead,
		})
		if err != nil {
			return 0, 0, err
		}
		if down {
			flakies[0].SetDown(true)
		}
		var total time.Duration
		n := 0
		for _, a := range order {
			start := time.Now()
			if _, err := log.Read(a, 0, blockSize); err != nil {
				if down && errors.Is(err, core.ErrLost) {
					continue // stripe entirely on the dead server
				}
				return 0, 0, err
			}
			total += time.Since(start)
			n++
		}
		recon := log.Stats().Reconstructions
		if n == 0 {
			return 0, recon, nil
		}
		return time.Duration(float64(total) / float64(n) * scale), recon, nil
	}

	healthy, _, err := measure(false)
	if err != nil {
		return DegradedReadResult{}, err
	}
	degraded, recon, err := measure(true)
	if err != nil {
		return DegradedReadResult{}, err
	}
	return DegradedReadResult{
		HealthyLatency:  healthy,
		DegradedLatency: degraded,
		Reconstructions: recon,
		Servers:         servers,
	}, nil
}
