// Package bench regenerates the paper's evaluation (§3.4): Figure 3 (raw
// write bandwidth), Figure 4 (useful write throughput), Figure 5 (the
// Modified Andrew Benchmark against ext2fs), the in-text cold-read
// measurement, and a set of ablations over Swarm's design choices.
//
// The harness runs the REAL stack — storage servers, the striped-log
// client, Sting — with every hardware resource wrapped in the 1999
// performance model (internal/model): 200 MHz-class client CPUs, 100 Mb/s
// switched Ethernet links, and 10.3 MB/s disks. A scale factor runs the
// same contention structure proportionally faster; reported bandwidths
// are normalized back to 1999-equivalents, so shapes and crossovers are
// preserved while a full sweep finishes in seconds.
package bench

import (
	"fmt"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/model"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// ClusterConfig sizes a simulated cluster.
type ClusterConfig struct {
	Servers      int
	FragmentSize int
	DiskBytes    int64
	Params       model.HardwareParams
}

// serverNode bundles one emulated storage server and its shared
// resources: every client of this server contends on the same NIC, CPU,
// and disk.
type serverNode struct {
	store *server.Store
	nic   *model.Queue
	cpu   *model.Queue
	disk  *disk.SimDisk
}

// SimCluster is an in-process cluster under the performance model.
type SimCluster struct {
	cfg   ClusterConfig
	nodes []*serverNode
}

// NewSimCluster builds a cluster of cfg.Servers emulated storage servers.
func NewSimCluster(cfg ClusterConfig) (*SimCluster, error) {
	if cfg.FragmentSize == 0 {
		cfg.FragmentSize = 1 << 20
	}
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = 512 << 20
	}
	c := &SimCluster{cfg: cfg}
	for i := 0; i < cfg.Servers; i++ {
		sd := disk.NewSimDisk(disk.NewMemDisk(cfg.DiskBytes), nil, cfg.Params)
		st, err := server.Format(sd, server.Config{FragmentSize: cfg.FragmentSize})
		if err != nil {
			return nil, fmt.Errorf("format server %d: %w", i, err)
		}
		node := &serverNode{store: st, disk: sd}
		if cfg.Params.NetRate > 0 {
			node.nic = model.NewQueue(nil, cfg.Params.NetRate)
		}
		if cfg.Params.ServerCPU > 0 {
			node.cpu = model.NewQueue(nil, cfg.Params.ServerCPU)
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// ClientEnv is one emulated client's view of the cluster.
type ClientEnv struct {
	Client wire.ClientID
	Conns  []transport.ServerConn
	CPU    *model.CPU
}

// Client builds connections for one client: a fresh client NIC and CPU,
// shared server-side resources.
func (c *SimCluster) Client(id wire.ClientID) *ClientEnv {
	var clientNIC *model.Queue
	if c.cfg.Params.NetRate > 0 {
		clientNIC = model.NewQueue(nil, c.cfg.Params.NetRate)
	}
	cpu := model.NewCPU(nil, c.cfg.Params.ClientCPU)
	conns := make([]transport.ServerConn, 0, len(c.nodes))
	for i, node := range c.nodes {
		inner := transport.NewLocal(wire.ServerID(i+1), node.store, id)
		nm := transport.NetModel{
			ClientNIC:   clientNIC,
			ServerNIC:   node.nic,
			ServerCPU:   node.cpu,
			Latency:     c.cfg.Params.NetLatency,
			ReqOverhead: c.cfg.Params.ServerReqOverhead,
		}
		conns = append(conns, transport.NewThrottled(inner, nm))
	}
	return &ClientEnv{Client: id, Conns: conns, CPU: cpu}
}

// Stores exposes the underlying fragment stores (tests, diagnostics).
func (c *SimCluster) Stores() []*server.Store {
	out := make([]*server.Store, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.store
	}
	return out
}

// appendBlocks appends n zero blocks of size bytes to log and returns
// their addresses.
func appendBlocks(log *core.Log, n, size int) ([]core.BlockAddr, error) {
	block := make([]byte, size)
	addrs := make([]core.BlockAddr, 0, n)
	for i := 0; i < n; i++ {
		addr, err := log.AppendBlock(7, block, nil)
		if err != nil {
			return addrs, err
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}
