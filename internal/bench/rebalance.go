// Rebalance benchmark: what an elastic-membership drain costs the
// foreground workload. A cluster writes at steady state, then a new
// server joins, an original is drained, and the same workload runs
// again while the background rebalancer migrates every fragment off the
// draining member. The figure of merit is the ratio of drain-phase to
// steady-phase append throughput — the paper's premise is that clients
// drive all data movement, so a drain must coexist with foreground I/O
// rather than pausing it. Per-request server latency is injected
// through transport.Flaky so both phases are network-bound and the
// ratio is stable on loaded hosts and under the race detector.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/erasure"
	"swarm/internal/rebalance"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// RebalanceConfig parameterizes the drain benchmark.
type RebalanceConfig struct {
	// Servers is the initial cluster size (a new one joins mid-run).
	// Default 6.
	Servers int
	// Blocks per phase. Default 160.
	Blocks int
	// BlockSize of each append. Default 1024.
	BlockSize int
	// Latency is the injected per-request server latency. Default 2ms.
	Latency time.Duration
}

// RebalanceResult records both phases of one run.
type RebalanceResult struct {
	Servers   int    `json:"servers"`
	Width     int    `json:"width"`
	Parity    int    `json:"parity"`
	Blocks    int    `json:"blocks"`
	BlockSize int    `json:"block_size"`
	LatencyNS int64  `json:"latency_ns"`
	Source    uint32 `json:"drained_server"`

	SteadyNS    int64   `json:"steady_ns"`
	DrainNS     int64   `json:"drain_ns"`
	SteadyMBps  float64 `json:"steady_mbps"`
	DrainMBps   float64 `json:"drain_mbps"`
	Ratio       float64 `json:"drain_over_steady"`
	Moved       int     `json:"moved_fragments"`
	MovedBytes  int64   `json:"moved_bytes"`
	RebalanceNS int64   `json:"rebalance_ns"`
	FinalEpoch  uint32  `json:"final_epoch"`
}

// RunRebalanceBench measures foreground append throughput before and
// during an elastic drain: steady state on the initial cluster, then a
// join + drain with the rebalancer running in the background.
func RunRebalanceBench(cfg RebalanceConfig) (RebalanceResult, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 6
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 160
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 1024
	}
	if cfg.Latency == 0 {
		cfg.Latency = 2 * time.Millisecond
	}
	const fragSize = 4096
	client := wire.ClientID(1)
	width, parity := 6, 2
	if cfg.Servers < width {
		width = cfg.Servers
		parity = 1
	}

	newServer := func(id wire.ServerID) (*transport.Flaky, error) {
		st, err := server.Format(disk.NewMemDisk(16<<20), server.Config{FragmentSize: fragSize})
		if err != nil {
			return nil, fmt.Errorf("format server %d: %w", id, err)
		}
		fl := transport.NewFlaky(transport.NewLocal(id, st, client))
		fl.SetLatency(cfg.Latency)
		return fl, nil
	}
	conns := make([]transport.ServerConn, cfg.Servers)
	for i := range conns {
		fl, err := newServer(wire.ServerID(i + 1))
		if err != nil {
			return RebalanceResult{}, err
		}
		conns[i] = fl
	}
	kind := erasure.KindXOR
	if parity > 1 {
		kind = erasure.KindRS
	}
	log, _, err := core.Open(core.Config{
		Client: client, Servers: conns, FragmentSize: fragSize,
		Width: width, ParityShards: parity, Codec: kind,
	})
	if err != nil {
		return RebalanceResult{}, err
	}
	defer log.Close()

	res := RebalanceResult{
		Servers: cfg.Servers, Width: width, Parity: parity,
		Blocks: cfg.Blocks, BlockSize: cfg.BlockSize,
		LatencyNS: cfg.Latency.Nanoseconds(), Source: 1,
	}
	block := make([]byte, cfg.BlockSize)
	appendPhase := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < cfg.Blocks; i++ {
			if _, err := log.AppendBlock(7, block, nil); err != nil {
				return 0, err
			}
		}
		if err := log.Sync(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	// Phase 1: steady state.
	steady, err := appendPhase()
	if err != nil {
		return res, err
	}

	// Phase 2: a new server joins, an original drains, and the same
	// workload runs while the rebalancer empties the draining member.
	joiner, err := newServer(wire.ServerID(cfg.Servers + 1))
	if err != nil {
		return res, err
	}
	if _, err := log.AddServer(joiner, 0); err != nil {
		return res, err
	}
	source := wire.ServerID(1)
	if _, err := log.DrainServer(source); err != nil {
		return res, err
	}
	reb := rebalance.New(log, source, rebalance.Options{})
	rebStart := time.Now()
	rebDone := make(chan error, 1)
	go func() { rebDone <- reb.Run(context.Background()) }()
	drain, err := appendPhase()
	if err != nil {
		return res, err
	}
	if err := <-rebDone; err != nil {
		return res, fmt.Errorf("rebalance: %w", err)
	}
	rebTime := time.Since(rebStart)
	if left, err := conns[source-1].List(client); err != nil || len(left) != 0 {
		return res, fmt.Errorf("drained server still holds %d fragments (%v)", len(left), err)
	}

	st := reb.Stats()
	useful := float64(cfg.Blocks * cfg.BlockSize)
	res.SteadyNS = steady.Nanoseconds()
	res.DrainNS = drain.Nanoseconds()
	res.SteadyMBps = useful / steady.Seconds() / (1 << 20)
	res.DrainMBps = useful / drain.Seconds() / (1 << 20)
	res.Ratio = res.DrainMBps / res.SteadyMBps
	res.Moved = st.Moved
	res.MovedBytes = st.Bytes
	res.RebalanceNS = rebTime.Nanoseconds()
	res.FinalEpoch = log.PlacementEpoch()
	return res, nil
}

// PrintRebalanceResult renders the drain-cost table.
func PrintRebalanceResult(w io.Writer, r RebalanceResult) {
	fmt.Fprintf(w, "Elastic drain — foreground append throughput while rebalancing\n")
	fmt.Fprintf(w, "%-22s %-10s %-10s %-8s %-12s %s\n",
		"cluster", "steady", "draining", "ratio", "moved", "rebalance time")
	fmt.Fprintf(w, "%d+1 srv RS(%d,%d)%-3s %-10s %-10s %-8.2f %-12s %v\n",
		r.Servers, r.Width-r.Parity, r.Parity, "",
		fmt.Sprintf("%.2fMB/s", r.SteadyMBps), fmt.Sprintf("%.2fMB/s", r.DrainMBps),
		r.Ratio, fmt.Sprintf("%dfr/%dKB", r.Moved, r.MovedBytes>>10),
		time.Duration(r.RebalanceNS).Round(time.Millisecond))
	fmt.Fprintln(w)
}

// WriteRebalanceJSON writes the machine-readable benchmark record
// (consumed by CI and tracked across PRs in EXPERIMENTS.md).
func WriteRebalanceJSON(path string, r RebalanceResult) error {
	doc := struct {
		Figure string          `json:"figure"`
		Meta   RunMeta         `json:"meta"`
		Result RebalanceResult `json:"result"`
	}{
		Figure: "rebalance",
		Meta:   NewRunMeta(),
		Result: r,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
