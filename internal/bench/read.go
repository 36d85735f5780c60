package bench

import (
	"fmt"
	"time"

	"swarm/internal/blockcache"
	"swarm/internal/core"
	"swarm/internal/model"
)

// ReadConfig parameterizes the cold/warm read measurement (the in-text
// numbers of §3.4: ~1.7 MB/s cold 4 KB reads, masked by the client
// cache).
type ReadConfig struct {
	Servers int
	Blocks  int
	Scale   float64
}

// ReadResult reports cold, prefetched, and cached read bandwidth.
type ReadResult struct {
	Servers int
	// ColdMBps: block-at-a-time cold reads (the prototype's behaviour,
	// the paper's 1.7 MB/s).
	ColdMBps float64
	// PrefetchMBps: cold reads with fragment readahead enabled — the
	// optimization the paper says "would greatly improve the
	// performance of reads that miss in the client cache".
	PrefetchMBps float64
	// CachedMBps: rereads served by the client block cache.
	CachedMBps float64
	Elapsed    time.Duration
}

// RunReadPoint writes Blocks 4 KB blocks, flushes, then reads them all
// back twice: once cold against the servers (no prefetch, no server
// cache — matching the prototype) and once through the client block
// cache.
func RunReadPoint(cfg ReadConfig) (ReadResult, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 2
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = 2000
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	params := model.Paper1999().Scaled(cfg.Scale)
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:   cfg.Servers,
		DiskBytes: int64(cfg.Blocks)*blockSize*4 + (64 << 20),
		Params:    params,
	})
	if err != nil {
		return ReadResult{}, err
	}
	env := cluster.Client(1)
	log, _, err := core.Open(core.Config{
		Client:       1,
		Servers:      env.Conns,
		CPU:          env.CPU,
		FragOverhead: params.ClientFragOverhead,
	})
	if err != nil {
		return ReadResult{}, err
	}
	addrs, err := appendBlocks(log, cfg.Blocks, blockSize)
	if err != nil {
		return ReadResult{}, err
	}
	if err := log.Sync(); err != nil {
		return ReadResult{}, err
	}
	const bs = blockSize
	// timed reads every block once through read.
	timed := func(pass string, read func(core.BlockAddr) error) (time.Duration, error) {
		start := time.Now()
		for _, addr := range addrs {
			if err := read(addr); err != nil {
				return 0, fmt.Errorf("%s read %v: %w", pass, addr, err)
			}
		}
		return time.Since(start), nil
	}

	// Cold pass: straight to the servers, block at a time.
	coldElapsed, err := timed("cold", func(a core.BlockAddr) error { _, err := log.Read(a, 0, bs); return err })
	if err != nil {
		return ReadResult{}, err
	}

	// Prefetch pass: a fresh log with fragment readahead, same blocks.
	raLog, _, err := core.Open(core.Config{
		Client:             1,
		Servers:            env.Conns,
		CPU:                env.CPU,
		FragOverhead:       params.ClientFragOverhead,
		ReadaheadFragments: 16,
	})
	if err != nil {
		return ReadResult{}, err
	}
	prefetchElapsed, err := timed("prefetch", func(a core.BlockAddr) error { _, err := raLog.Read(a, 0, bs); return err })
	if err != nil {
		return ReadResult{}, err
	}

	// Warm pass: through the client block cache (populate, then reread).
	cache := blockcache.New(log, int64(cfg.Blocks)*blockSize*2)
	cached := func(a core.BlockAddr) error { _, err := cache.ReadBlock(a, bs, 0, bs); return err }
	if _, err := timed("populate", cached); err != nil {
		return ReadResult{}, err
	}
	warmElapsed, err := timed("cached", cached)
	if err != nil {
		return ReadResult{}, err
	}

	total := float64(cfg.Blocks) * blockSize
	res := ReadResult{
		Servers:      cfg.Servers,
		ColdMBps:     total / coldElapsed.Seconds() / model.MB / cfg.Scale,
		PrefetchMBps: total / prefetchElapsed.Seconds() / model.MB / cfg.Scale,
		// The warm pass never touches the emulated hardware, so it is
		// NOT normalized: it is genuinely memory-speed.
		CachedMBps: total / warmElapsed.Seconds() / model.MB,
		Elapsed:    time.Duration(float64(coldElapsed) * cfg.Scale),
	}
	return res, log.Close()
}
