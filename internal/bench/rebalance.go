// Rebalance benchmark: what an elastic-membership drain costs the
// foreground workload. A cluster writes at steady state, then a new
// server joins, an original is drained, and the same workload runs
// again while the background rebalancer migrates every fragment off the
// draining member. The figure of merit is the ratio of drain-phase to
// steady-phase append throughput — the paper's premise is that clients
// drive all data movement, so a drain must coexist with foreground I/O
// rather than pausing it. A fixed per-request server latency is
// injected on every call and the run is timed in model time
// (driveModelTime), so both phases are network-bound and the ratio
// counts injected delays, not host scheduling: it is stable on loaded
// hosts and under the race detector.
package bench

import (
	"context"
	"fmt"
	"time"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/erasure"
	"swarm/internal/model"
	"swarm/internal/rebalance"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// RebalanceConfig parameterizes the drain benchmark.
type RebalanceConfig struct {
	// Blocks of 1 KB appended per phase. Default 160.
	Blocks int
	// Latency is the injected per-request server latency. Default 2ms.
	Latency time.Duration
}

// RebalanceResult records both phases of one run.
type RebalanceResult struct {
	Servers, Width, Parity int

	Steady, Drain         time.Duration // the two append phases
	SteadyMBps, DrainMBps float64
	Ratio                 float64 // DrainMBps / SteadyMBps
	Moved                 int     // fragments migrated off the drained server
	MovedBytes            int64
	Rebalance             time.Duration // the rebalancer's whole run
	FinalEpoch            uint32
}

// RunRebalanceBench measures foreground append throughput before and
// during an elastic drain: steady state on the initial cluster, then a
// join + drain with the rebalancer running in the background.
func RunRebalanceBench(cfg RebalanceConfig) (RebalanceResult, error) {
	if cfg.Blocks == 0 {
		cfg.Blocks = 160
	}
	if cfg.Latency == 0 {
		cfg.Latency = 2 * time.Millisecond
	}
	// Six servers store RS(4,2) stripes of 4 KB fragments; a seventh
	// joins before the first is drained.
	const (
		servers, width, parity = 6, 6, 2
		fragSize, blockSize    = 4096, 1024
	)
	client := wire.ClientID(1)

	clock := model.NewFakeClock(time.Time{})
	stop := driveModelTime(clock, cfg.Latency)
	defer stop()
	newServer := func(id wire.ServerID) (transport.ServerConn, error) {
		st, err := server.Format(disk.NewMemDisk(16<<20), server.Config{FragmentSize: fragSize})
		if err != nil {
			return nil, fmt.Errorf("format server %d: %w", id, err)
		}
		return transport.NewThrottled(transport.NewLocal(id, st, client), transport.NetModel{Clock: clock, Latency: cfg.Latency}), nil
	}
	conns := make([]transport.ServerConn, servers)
	for i := range conns {
		c, err := newServer(wire.ServerID(i + 1))
		if err != nil {
			return RebalanceResult{}, err
		}
		conns[i] = c
	}
	log, _, err := core.Open(core.Config{
		Client: client, Servers: conns, FragmentSize: fragSize,
		Width: width, ParityShards: parity, Codec: erasure.KindRS,
	})
	if err != nil {
		return RebalanceResult{}, err
	}
	defer log.Close()

	res := RebalanceResult{Servers: servers, Width: width, Parity: parity}
	block := make([]byte, blockSize)
	appendPhase := func() (time.Duration, error) {
		start := clock.Now()
		for i := 0; i < cfg.Blocks; i++ {
			if _, err := log.AppendBlock(7, block, nil); err != nil {
				return 0, err
			}
		}
		if err := log.Sync(); err != nil {
			return 0, err
		}
		return clock.Now().Sub(start), nil
	}

	// Phase 1: steady state.
	steady, err := appendPhase()
	if err != nil {
		return res, err
	}

	// Phase 2: a new server joins, an original drains, and the same
	// workload runs while the rebalancer empties the draining member.
	joiner, err := newServer(wire.ServerID(servers + 1))
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
	rebStart := clock.Now()
	rebDone := make(chan error, 1)
	go func() { rebDone <- reb.Run(context.Background()) }()
	drain, err := appendPhase()
	// Wait for the rebalancer even when the appends failed: its delays
	// need the model clock, which stops when this function returns.
	rebErr := <-rebDone
	if err != nil {
		return res, err
	}
	if rebErr != nil {
		return res, fmt.Errorf("rebalance: %w", rebErr)
	}
	rebTime := clock.Now().Sub(rebStart)
	if left, err := conns[source-1].List(client); err != nil || len(left) != 0 {
		return res, fmt.Errorf("drained server still holds %d fragments (%v)", len(left), err)
	}

	st := reb.Stats()
	useful := float64(cfg.Blocks * blockSize)
	res.Steady, res.Drain = steady, drain
	res.SteadyMBps = useful / steady.Seconds() / (1 << 20)
	res.DrainMBps = useful / drain.Seconds() / (1 << 20)
	res.Ratio = res.DrainMBps / res.SteadyMBps
	res.Moved = st.Moved
	res.MovedBytes = st.Bytes
	res.Rebalance = rebTime
	res.FinalEpoch = log.PlacementEpoch()
	return res, nil
}
