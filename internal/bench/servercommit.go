// Servercommit benchmark: how the storage server's group-committed store
// path (metadata-only critical section, unlocked data writes, coalesced
// fsyncs; DESIGN.md §3.10) scales with concurrent writers. N writers
// pump whole fragments into one server.Store. Two disks bracket the
// regimes: a FileDisk with real fsyncs (fsync-bound — where coalescing
// pays) and a SimDisk charging mechanical seek/rotation/transfer time
// (arm-bound — where the one-head queue dominates either way).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/disk"
	"swarm/internal/model"
	"swarm/internal/server"
	"swarm/internal/wire"
)

// ServercommitConfig parameterizes the group-commit writer sweep.
type ServercommitConfig struct {
	// Stores is the number of fragment stores per measurement.
	Stores int
	// PayloadKB is the fragment size per store.
	PayloadKB int
	// Writers is the concurrency sweep (the paper point is depth 8).
	Writers []int
	// SimScale speeds up the simulated disk's mechanical model
	// (RunWriteSweep's -scale; default 10).
	SimScale float64
	// Dir hosts the FileDisk backing files ("" = a fresh temp dir).
	Dir string
}

func (c ServercommitConfig) withDefaults() ServercommitConfig {
	if c.Stores == 0 {
		c.Stores = 256
	}
	if c.PayloadKB == 0 {
		c.PayloadKB = 64
	}
	if len(c.Writers) == 0 {
		c.Writers = []int{1, 2, 4, 8}
	}
	if c.SimScale == 0 {
		c.SimScale = 10
	}
	return c
}

// ServercommitResult is one (disk, writers) measurement.
type ServercommitResult struct {
	Disk           string  `json:"disk"` // "filedisk" or "simdisk"
	Writers        int     `json:"writers"`
	Stores         int     `json:"stores"`
	PayloadKB      int     `json:"payload_kb"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	MBps           float64 `json:"mb_per_s"`
	StoresPerSec   float64 `json:"stores_per_s"`
	SyncsPerStore  float64 `json:"syncs_per_store"`
	MeanSyncBatch  float64 `json:"mean_sync_batch"`
	MeanEntryBatch float64 `json:"mean_entry_batch"`
	AvgStoreMicros float64 `json:"avg_store_us"`
}

// RunServercommit measures the group-committed store path across the
// writer sweep on both disk models.
func RunServercommit(cfg ServercommitConfig, progress func(string)) ([]ServercommitResult, error) {
	cfg = cfg.withDefaults()
	if progress == nil {
		progress = func(string) {}
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "swarmbench-servercommit")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	var out []ServercommitResult
	for _, diskKind := range []string{"filedisk", "simdisk"} {
		for _, writers := range cfg.Writers {
			progress(fmt.Sprintf("servercommit: %s, %d writers", diskKind, writers))
			r, err := runServercommitPoint(cfg, dir, diskKind, writers)
			if err != nil {
				return out, fmt.Errorf("servercommit %s/%d: %w", diskKind, writers, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func runServercommitPoint(cfg ServercommitConfig, dir, diskKind string, writers int) (ServercommitResult, error) {
	fragSize := cfg.PayloadKB << 10
	diskSize := int64(cfg.Stores+16)*int64(fragSize) + (8 << 20)
	var d disk.Disk
	switch diskKind {
	case "filedisk":
		path := filepath.Join(dir, fmt.Sprintf("commit-%d.img", writers))
		fd, err := disk.OpenFileDisk(path, diskSize)
		if err != nil {
			return ServercommitResult{}, err
		}
		defer func() {
			fd.Close()
			os.Remove(path)
		}()
		d = fd
	case "simdisk":
		d = disk.NewSimDisk(disk.NewMemDisk(diskSize), nil, model.Paper1999().Scaled(cfg.SimScale))
	default:
		return ServercommitResult{}, fmt.Errorf("unknown disk kind %q", diskKind)
	}

	st, err := server.Format(d, server.Config{FragmentSize: fragSize})
	if err != nil {
		return ServercommitResult{}, err
	}

	payload := make([]byte, fragSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	before := st.Stats()
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Stores) {
					return
				}
				if err := st.Store(wire.MakeFID(1, uint64(i)), payload, false, nil); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return ServercommitResult{}, err
	}
	after := st.Stats()

	stores := after.Stores - before.Stores
	syncs := after.Syncs - before.Syncs
	reqs := after.SyncRequests - before.SyncRequests
	mb := float64(cfg.Stores) * float64(fragSize) / (1 << 20)
	r := ServercommitResult{
		Disk:         diskKind,
		Writers:      writers,
		Stores:       cfg.Stores,
		PayloadKB:    cfg.PayloadKB,
		ElapsedMS:    float64(elapsed) / float64(time.Millisecond),
		MBps:         mb / elapsed.Seconds(),
		StoresPerSec: float64(cfg.Stores) / elapsed.Seconds(),
		AvgStoreMicros: float64(after.StoreNanos-before.StoreNanos) /
			float64(stores) / float64(time.Microsecond),
	}
	if stores > 0 {
		r.SyncsPerStore = float64(syncs) / float64(stores)
	}
	if syncs > 0 {
		r.MeanSyncBatch = float64(reqs) / float64(syncs)
	}
	if b := after.EntryBatches - before.EntryBatches; b > 0 {
		r.MeanEntryBatch = float64(after.EntriesBatched-before.EntriesBatched) / float64(b)
	}
	return r, nil
}

// PrintServercommitResults renders the sweep.
func PrintServercommitResults(w io.Writer, rows []ServercommitResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Servercommit — group-committed store path (%d stores of %d KB)\n",
		rows[0].Stores, rows[0].PayloadKB)
	fmt.Fprintf(w, "%-10s %-8s %-10s %-10s %-12s %-12s %-12s %s\n",
		"disk", "writers", "elapsed", "MB/s", "fsync/store", "sync batch", "entry batch", "store lat")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8d %-10s %-10.1f %-12.2f %-12.1f %-12.1f %s\n",
			r.Disk, r.Writers,
			(time.Duration(r.ElapsedMS * float64(time.Millisecond))).Round(time.Millisecond).String(),
			r.MBps, r.SyncsPerStore, r.MeanSyncBatch, r.MeanEntryBatch,
			(time.Duration(r.AvgStoreMicros * float64(time.Microsecond))).Round(10*time.Microsecond).String())
	}
	fmt.Fprintln(w)
}

// WriteServercommitJSON writes the machine-readable benchmark record
// (consumed by CI and tracked across PRs in EXPERIMENTS.md).
func WriteServercommitJSON(path string, rows []ServercommitResult) error {
	doc := struct {
		Figure  string               `json:"figure"`
		Meta    RunMeta              `json:"meta"`
		Results []ServercommitResult `json:"results"`
	}{
		Figure:  "servercommit",
		Meta:    NewRunMeta(),
		Results: rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
