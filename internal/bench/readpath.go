// Readpath benchmark: what the serving tier buys on a read-heavy,
// many-client, Zipf-skewed workload (DESIGN.md §3.13). One client writes
// a dataset; a fleet of reader clients then hammers it with Zipf(1.0)
// block reads — the hot-set skew typical of "millions of readers, few
// writers" serving. The workload runs once with the serving tier off
// (no server extent cache, no readahead — the prototype's behaviour)
// and again across a sweep of server cache sizes and readahead depths.
// Hit rates and
// bytes-copied counters come back through server.Stats, the same
// counters swarmctl stat prints against a live cluster.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/blockcache"
	"swarm/internal/core"
	"swarm/internal/model"
)

// ReadpathConfig parameterizes the serving-tier comparison.
type ReadpathConfig struct {
	Servers   int
	Blocks    int // dataset size in blocks
	BlockSize int
	Clients   int // concurrent reader clients
	Ops       int // reads per client
	Scale     float64
}

func (c ReadpathConfig) withDefaults() ReadpathConfig {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Blocks == 0 {
		c.Blocks = 4096
	}
	if c.BlockSize == 0 {
		c.BlockSize = 8192
	}
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.Scale == 0 {
		c.Scale = 10
	}
	return c
}

// ReadpathResult is one serving-tier configuration's measurement.
type ReadpathResult struct {
	Mode          string  `json:"mode"` // "off" or "cache<N>MB+ra<D>"
	ServerCacheMB int     `json:"server_cache_mb"`
	ServerRA      int     `json:"server_readahead"`
	Clients       int     `json:"clients"`
	Ops           int     `json:"ops_total"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	ReadMBps      float64 `json:"mb_per_s"`
	// Server-side read path counters, summed across servers.
	ServerHitRate  float64 `json:"server_hit_rate"`
	ServerHits     int64   `json:"server_hits"`
	ServerMisses   int64   `json:"server_misses"`
	ReadaheadLoads int64   `json:"readahead_loads"`
	BytesCachedMB  float64 `json:"bytes_from_cache_mb"`
	BytesDiskMB    float64 `json:"bytes_from_disk_mb"`
	// Client-side block cache behaviour, summed across readers.
	ClientHitRate float64 `json:"client_hit_rate"`
}

// zipfRanks returns n Zipf(s=1.0) samples in [0,n) using inverse-CDF
// sampling (stdlib rand.Zipf requires s > 1, so the classic s = 1.0 of
// web serving needs its own sampler). The cumulative table costs O(n)
// once; each sample is one binary search.
type zipfSampler struct {
	cum []float64
	rng *rand.Rand
}

func newZipfSampler(n int, seed int64) *zipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	return &zipfSampler{cum: cum, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipfSampler) next() int {
	u := z.rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// readpathMode is one row of the sweep.
type readpathMode struct {
	name     string
	cacheMB  int // server extent cache; 0 = serving tier off
	serverRA int
}

// RunReadpath measures the Zipf read workload with the serving tier off
// and across a (cache size × readahead depth) sweep. Results come back
// in sweep order, "off" first.
func RunReadpath(cfg ReadpathConfig, progress func(string)) ([]ReadpathResult, error) {
	cfg = cfg.withDefaults()
	if progress == nil {
		progress = func(string) {}
	}
	modes := []readpathMode{
		{name: "off", cacheMB: 0, serverRA: 0},
		{name: "cache16MB", cacheMB: 16, serverRA: 0},
		{name: "cache16MB+ra4", cacheMB: 16, serverRA: 4},
		{name: "cache64MB+ra4", cacheMB: 64, serverRA: 4},
	}
	var out []ReadpathResult
	for _, m := range modes {
		progress(fmt.Sprintf("readpath: %s (%d clients, %d ops each)", m.name, cfg.Clients, cfg.Ops))
		r, err := runReadpathMode(cfg, m)
		if err != nil {
			return out, fmt.Errorf("readpath %s: %w", m.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runReadpathMode(cfg ReadpathConfig, mode readpathMode) (ReadpathResult, error) {
	params := model.Paper1999().Scaled(cfg.Scale)
	dataBytes := int64(cfg.Blocks) * int64(cfg.BlockSize)
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:   cfg.Servers,
		DiskBytes: dataBytes*4 + (64 << 20),
		Params:    params,
	})
	if err != nil {
		return ReadpathResult{}, err
	}
	if mode.cacheMB > 0 {
		for _, st := range cluster.Stores() {
			st.SetReadCache(int64(mode.cacheMB)<<20, mode.serverRA)
		}
	}

	// Write the dataset.
	wenv := cluster.Client(1)
	wlog, _, err := core.Open(core.Config{
		Client:       1,
		Servers:      wenv.Conns,
		CPU:          wenv.CPU,
		FragOverhead: params.ClientFragOverhead,
	})
	if err != nil {
		return ReadpathResult{}, err
	}
	block := make([]byte, cfg.BlockSize)
	addrs := make([]core.BlockAddr, 0, cfg.Blocks)
	for i := 0; i < cfg.Blocks; i++ {
		addr, aerr := wlog.AppendBlock(7, block, nil)
		if aerr != nil {
			return ReadpathResult{}, aerr
		}
		addrs = append(addrs, addr)
	}
	if err := wlog.Sync(); err != nil {
		return ReadpathResult{}, err
	}
	if err := wlog.Close(); err != nil {
		return ReadpathResult{}, err
	}

	// Permute Zipf rank → block so the hot set is spread across the
	// whole log rather than clustered in the first fragment. Fixed seed:
	// every mode reads the identical reference string.
	perm := rand.New(rand.NewSource(42)).Perm(cfg.Blocks)

	// Reader fleet: each reader is its own client machine (own NIC, own
	// log handle, own block cache) reading the writer's log. Client
	// block caches are identical in every mode — an eighth of the
	// dataset — so the measured difference is the serving tier, not
	// client-side caching.
	type readerState struct {
		log   *core.Log
		cache *blockcache.Cache
	}
	readers := make([]readerState, cfg.Clients)
	clientCache := dataBytes / 8
	for i := range readers {
		renv := cluster.Client(1)
		rlog, _, oerr := core.Open(core.Config{
			Client:       1,
			Servers:      renv.Conns,
			CPU:          renv.CPU,
			FragOverhead: params.ClientFragOverhead,
		})
		if oerr != nil {
			return ReadpathResult{}, oerr
		}
		readers[i] = readerState{log: rlog, cache: blockcache.New(rlog, clientCache)}
	}

	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			z := newZipfSampler(cfg.Blocks, int64(i)+1)
			rd := readers[i]
			for op := 0; op < cfg.Ops; op++ {
				addr := addrs[perm[z.next()]]
				if _, rerr := rd.cache.ReadBlock(addr, uint32(cfg.BlockSize), 0, uint32(cfg.BlockSize)); rerr != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("read %v: %w", addr, rerr))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return ReadpathResult{}, err
	}

	// Gather counters before tearing the readers down.
	var cHits, cMisses int64
	for _, rd := range readers {
		h, m, _ := rd.cache.Stats()
		cHits += h
		cMisses += m
		if cerr := rd.log.Close(); cerr != nil {
			return ReadpathResult{}, cerr
		}
	}
	var sHits, sMisses, raLoads, bytesCached, bytesDisk int64
	for _, st := range cluster.Stores() {
		ss := st.Stats()
		sHits += ss.ReadHits
		sMisses += ss.ReadMisses
		raLoads += ss.ReadaheadLoads
		bytesCached += ss.ReadBytesCached
		bytesDisk += ss.ReadBytesDisk
	}

	totalOps := cfg.Clients * cfg.Ops
	totalBytes := float64(totalOps) * float64(cfg.BlockSize)
	res := ReadpathResult{
		Mode:          mode.name,
		ServerCacheMB: mode.cacheMB,
		ServerRA:      mode.serverRA,
		Clients:       cfg.Clients,
		Ops:           totalOps,
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		// Normalized to 1999-equivalents like the write figures; the
		// ratio between modes (the speedup) is scale-invariant.
		ReadMBps:       totalBytes / elapsed.Seconds() / model.MB / cfg.Scale,
		ServerHits:     sHits,
		ServerMisses:   sMisses,
		ReadaheadLoads: raLoads,
		BytesCachedMB:  float64(bytesCached) / model.MB,
		BytesDiskMB:    float64(bytesDisk) / model.MB,
	}
	if sHits+sMisses > 0 {
		res.ServerHitRate = float64(sHits) / float64(sHits+sMisses)
	}
	if cHits+cMisses > 0 {
		res.ClientHitRate = float64(cHits) / float64(cHits+cMisses)
	}
	return res, nil
}

// ReadpathSpeedup returns the best serving-tier-on throughput over the
// serving-tier-off baseline.
func ReadpathSpeedup(rows []ReadpathResult) float64 {
	var off, best float64
	for _, r := range rows {
		if r.Mode == "off" {
			off = r.ReadMBps
		} else if r.ReadMBps > best {
			best = r.ReadMBps
		}
	}
	if off == 0 {
		return 0
	}
	return best / off
}

// PrintReadpathResults renders the sweep table.
func PrintReadpathResults(w io.Writer, rows []ReadpathResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Readpath — serving tier on Zipf(1.0) reads (%d clients, %d reads total)\n",
		rows[0].Clients, rows[0].Ops)
	fmt.Fprintf(w, "%-26s %-10s %-10s %-12s %-12s %-12s %s\n",
		"mode", "MB/s", "elapsed", "srv hit%", "cli hit%", "ra loads", "MB cache/disk")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-10.1f %-10s %-12.1f %-12.1f %-12d %.0f/%.0f\n",
			r.Mode, r.ReadMBps,
			(time.Duration(r.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond).String(),
			100*r.ServerHitRate, 100*r.ClientHitRate, r.ReadaheadLoads,
			r.BytesCachedMB, r.BytesDiskMB)
	}
	fmt.Fprintf(w, "speedup (best vs off): %.2fx\n\n", ReadpathSpeedup(rows))
}

// WriteReadpathJSON writes the machine-readable benchmark record
// (consumed by CI and tracked across PRs in EXPERIMENTS.md).
func WriteReadpathJSON(path string, rows []ReadpathResult) error {
	doc := struct {
		Figure  string           `json:"figure"`
		Meta    RunMeta          `json:"meta"`
		Speedup float64          `json:"speedup"`
		Results []ReadpathResult `json:"results"`
	}{
		Figure:  "readpath",
		Meta:    NewRunMeta(),
		Speedup: math.Round(ReadpathSpeedup(rows)*100) / 100,
		Results: rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
