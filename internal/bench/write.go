package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"swarm/internal/core"
	"swarm/internal/model"
	"swarm/internal/wire"
)

// blockSize is the 4 KB block of the paper's write and read benchmarks.
const blockSize = 4096

// WriteConfig parameterizes one write-bandwidth measurement (one point of
// Figure 3/4).
type WriteConfig struct {
	Clients int
	Servers int
	// Blocks is the number of 4 KB blocks each client writes (the paper
	// uses 10,000).
	Blocks int
	// Scale speeds the emulated hardware up by this factor; results are
	// normalized back. 0 means 1.
	Scale float64
	// FragmentSize defaults to the paper's 1 MB.
	FragmentSize int
	// DisableParity turns parity off (the raw benchmark's single-server
	// configuration has nowhere to put parity).
	DisableParity bool
	// PipelineDepth overrides the per-server pipeline (default 2).
	PipelineDepth int
}

func (c *WriteConfig) setDefaults() {
	if c.Blocks == 0 {
		c.Blocks = 10000
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.FragmentSize == 0 {
		c.FragmentSize = 1 << 20
	}
	if c.Servers == 1 {
		c.DisableParity = true
	}
}

// WriteResult is one measured point.
type WriteResult struct {
	Clients    int
	Servers    int
	Elapsed    time.Duration // normalized to 1999-equivalent time
	RawMBps    float64       // aggregate, including metadata and parity
	UsefulMBps float64       // aggregate application bytes only
}

// RunWritePoint measures aggregate write bandwidth for one
// clients×servers configuration: each client appends Blocks 4 KB blocks
// to its own striped log and flushes, exactly the microbenchmark of
// §3.4 ("a simple microbenchmark that wrote 10,000 4KB blocks into the
// log, then flushed the log to the storage servers").
func RunWritePoint(cfg WriteConfig) (WriteResult, error) {
	cfg.setDefaults()
	params := model.Paper1999().Scaled(cfg.Scale)
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:      cfg.Servers,
		FragmentSize: cfg.FragmentSize,
		DiskBytes:    int64(cfg.Blocks)*blockSize*4 + (64 << 20),
		Params:       params,
	})
	if err != nil {
		return WriteResult{}, err
	}

	block := make([]byte, blockSize)
	for i := range block {
		block[i] = byte(i)
	}
	var wg sync.WaitGroup
	stored := make([]int64, cfg.Clients)
	errs := make([]error, cfg.Clients)
	start := time.Now()
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			env := cluster.Client(wire.ClientID(ci + 1))
			stored[ci], errs[ci] = writeClient(env, cfg, params, append([]byte(nil), block...))
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return WriteResult{}, err
	}
	var rawBytes int64
	for _, n := range stored {
		rawBytes += n
	}

	useful := int64(cfg.Clients) * int64(cfg.Blocks) * blockSize
	secs := elapsed.Seconds()
	res := WriteResult{
		Clients:    cfg.Clients,
		Servers:    cfg.Servers,
		Elapsed:    time.Duration(float64(elapsed) * cfg.Scale),
		RawMBps:    float64(rawBytes) / secs / model.MB / cfg.Scale,
		UsefulMBps: float64(useful) / secs / model.MB / cfg.Scale,
	}
	return res, nil
}

// writeClient appends cfg.Blocks copies of block to one client's log
// and flushes it, returning the bytes the log stored.
func writeClient(env *ClientEnv, cfg WriteConfig, params model.HardwareParams, block []byte) (int64, error) {
	log, _, err := core.Open(core.Config{
		Client:        env.Client,
		Servers:       env.Conns,
		FragmentSize:  cfg.FragmentSize,
		Width:         min(cfg.Servers, core.MaxWidth),
		DisableParity: cfg.DisableParity,
		PipelineDepth: cfg.PipelineDepth,
		CPU:           env.CPU,
		FragOverhead:  params.ClientFragOverhead,
	})
	if err != nil {
		return 0, err
	}
	for b := 0; b < cfg.Blocks; b++ {
		if _, err := log.AppendBlock(7, block, nil); err != nil {
			return 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return log.Stats().BytesStored, nil
}

// Figure3Clients and Figure3Servers are the paper's sweep axes.
var (
	Figure3Clients = []int{1, 2, 4}
	Figure3Servers = []int{1, 2, 3, 4, 5, 6, 7, 8}
	// Figure4Servers starts at 2: "the minimum system configuration
	// consisted of a single client and two servers, one to store data
	// and the other parity" (§3.4).
	Figure4Servers = []int{2, 3, 4, 5, 6, 7, 8}
)

// RunWriteSweep runs a full clients×servers sweep.
func RunWriteSweep(clients, servers []int, base WriteConfig, progress func(string)) ([]WriteResult, error) {
	var out []WriteResult
	for _, nc := range clients {
		for _, ns := range servers {
			cfg := base
			cfg.Clients = nc
			cfg.Servers = ns
			if progress != nil {
				progress(fmt.Sprintf("write point: %d client(s) × %d server(s)", nc, ns))
			}
			r, err := RunWritePoint(cfg)
			if err != nil {
				return out, fmt.Errorf("point c=%d s=%d: %w", nc, ns, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
