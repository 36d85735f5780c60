package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"swarm/internal/vfs"
	"swarm/internal/wire"
)

const (
	blockSize  = 4096     // Sting block size and the read/overwrite size
	writeChunk = 64 << 10 // bulk and preload WriteAt size
	// usablePayload underestimates the user bytes one fragment holds
	// (header, per-block entry headers), for the up-front space check.
	usablePayload = fragSize - 64<<10
	// maxFileBlocks caps each file at 192 MB. A Sting inode holds 16
	// bytes per block and must fit in one fragment, so a file cannot
	// reach 256 MB; bulk_write rotates to a fresh file at this size.
	maxFileBlocks = (192 << 20) / blockSize
)

// workload is one traffic mix. Every workload is a closed loop: each of
// the two clients has one goroutine issuing its next call when the
// previous one returns. Sizes are per client and scale with
// options.scale (1 for the benchmark; the smoke test shrinks them).
type workload struct {
	name string
	why  string

	preloadMB int // dataset written and synced before timing

	// bulk_write: a byte budget of bulkMBPerSec × seconds MB per
	// client, written in 64 KB WriteAt calls with an fs.Sync after
	// every syncMB.
	bulkMBPerSec int
	syncMB       int

	// mixed: an operation budget of opsPerSec × seconds per client;
	// writeShare of them are 4 KB overwrites, the rest 4 KB reads, and
	// an fs.Sync follows every syncEvery writes. Workloads without a
	// budget read for the phase's seconds.
	opsPerSec  int
	writeShare float64
	syncEvery  int

	limit time.Duration // latency an operation must meet to count as goodput

	killServer bool // close one server after the preload
	restart    bool // restart every server before the final read-back
}

var workloads = []workload{
	{
		name:         "bulk_write",
		why:          "64 KB writes with an fs.Sync every 8 MB: Sting flush, log seal, RS encode, store pipeline, group commit, fsync",
		bulkMBPerSec: 8,
		syncMB:       8,
		limit:        time.Second,
		restart:      true,
	},
	{
		name:      "random_read",
		why:       "4 KB reads over 48 MB per client: beyond the client block cache, inside the servers' extent caches",
		preloadMB: 48,
		limit:     5 * time.Millisecond,
	},
	{
		name:       "mixed",
		why:        "80% 4 KB reads, 20% 4 KB overwrites, an fs.Sync every 64 writes, over a dataset larger than the extent caches",
		preloadMB:  192,
		opsPerSec:  2000,
		writeShare: 0.2,
		syncEvery:  64,
		limit:      20 * time.Millisecond,
	},
	{
		name:       "degraded_read",
		why:        "4 KB reads with one of six servers down: RS reconstruction from 4 surviving fragments",
		preloadMB:  96,
		limit:      100 * time.Millisecond,
		killServer: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fillBlock writes the content of block `block` of client `client` at
// `version` into dst (a multiple of 8 bytes). Content depends only on
// (seed, client, block, version), so any reader can check it.
func fillBlock(dst []byte, seed int64, client, block int, version uint32) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(client)<<56 ^ uint64(block)<<20 ^ uint64(version)
	for i := 0; i+8 <= len(dst); i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^z>>31)
	}
}

// dataset is one client's file and the version of each of its blocks.
type dataset struct {
	path     string
	file     vfs.File
	versions []uint32
}

func (d *dataset) size() int64 { return int64(len(d.versions)) * blockSize }

// writeSeq writes blocks [from, to) of ds sequentially in 64 KB WriteAt
// calls at their current versions. onWrite, when set, observes each
// call's start and end; an fs.Sync follows every syncBytes (0: never).
func writeSeq(fs fileSystem, ds *dataset, seed int64, client, from, to int, syncBytes int64, onWrite func(start, end time.Time, err error), onSync func(start, end time.Time, err error)) error {
	buf := make([]byte, writeChunk)
	perChunk := writeChunk / blockSize
	var sinceSync int64
	for b := from; b < to; b += perChunk {
		n := min(perChunk, to-b)
		for i := 0; i < n; i++ {
			fillBlock(buf[i*blockSize:(i+1)*blockSize], seed, client, b+i, ds.versions[b+i])
		}
		start := time.Now()
		_, err := ds.file.WriteAt(buf[:n*blockSize], int64(b)*blockSize)
		if onWrite != nil {
			onWrite(start, time.Now(), err)
		}
		if err != nil {
			return fmt.Errorf("write block %d: %w", b, err)
		}
		sinceSync += int64(n) * blockSize
		if syncBytes > 0 && sinceSync >= syncBytes {
			sinceSync = 0
			start := time.Now()
			err := fs.Sync()
			if onSync != nil {
				onSync(start, time.Now(), err)
			}
			if err != nil {
				return fmt.Errorf("sync: %w", err)
			}
		}
	}
	return nil
}

// verifyAll reads the whole file back in 1 MB calls and compares every
// block with its expected content. It returns the number of mismatched
// blocks.
func verifyAll(file vfs.File, ds *dataset, seed int64, client int) (int, error) {
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	want := make([]byte, blockSize)
	bad := 0
	for off := int64(0); off < ds.size(); off += chunk {
		n := int(min(chunk, ds.size()-off))
		got, err := file.ReadAt(buf[:n], off)
		if err != nil {
			return bad, fmt.Errorf("read back at %d: %w", off, err)
		}
		if got != n {
			return bad, fmt.Errorf("read back at %d: got %d of %d bytes", off, got, n)
		}
		for i := 0; i < n; i += blockSize {
			b := int((off + int64(i)) / blockSize)
			fillBlock(want, seed, client, b, ds.versions[b])
			if !bytes.Equal(buf[i:i+blockSize], want) {
				bad++
			}
		}
	}
	return bad, nil
}

// samples collects one client's timings during the timed phase.
type samples struct {
	reads, writes, syncs, late []time.Duration
	goodAt                     []time.Duration // completion offsets of ops within the limit
	attempted, failed          int
	mismatches                 int
	noSpace                    int
	firstErr                   error
}

func (s *samples) fail(err error) {
	s.failed++
	if isNoSpace(err) {
		s.noSpace++
	}
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func isNoSpace(err error) bool {
	return wire.IsStatus(err, wire.StatusNoSpace) || errors.Is(err, vfs.ErrNoSpace) ||
		(err != nil && strings.Contains(err.Error(), "no space"))
}

// done records a successful operation of latency lat ending at end.
func (s *samples) done(w workload, phaseStart, end time.Time, lat time.Duration) {
	if lat <= w.limit {
		s.goodAt = append(s.goodAt, end.Sub(phaseStart))
	}
}

// bulkLoop writes the client's files in 64 KB calls. Each call is due
// the moment the previous call returned, so the generator's lateness is
// the gap it spends between calls.
func bulkLoop(w workload, fs fileSystem, files []*dataset, seed int64, client int, phaseStart time.Time, s *samples) {
	prevEnd := phaseStart
	onWrite := func(start, end time.Time, err error) {
		s.attempted++
		s.late = append(s.late, start.Sub(prevEnd))
		prevEnd = end
		if err != nil {
			s.fail(err)
			return
		}
		s.writes = append(s.writes, end.Sub(start))
		s.done(w, phaseStart, end, end.Sub(start))
	}
	onSync := func(start, end time.Time, err error) {
		prevEnd = end
		if err != nil {
			s.fail(err)
			return
		}
		s.syncs = append(s.syncs, end.Sub(start))
	}
	for _, ds := range files {
		if err := writeSeq(fs, ds, seed, client, 0, len(ds.versions), int64(w.syncMB)<<20, onWrite, onSync); err != nil {
			if s.firstErr == nil {
				s.firstErr = err
			}
			break
		}
	}
	start := time.Now()
	err := fs.Sync()
	onSync(start, time.Now(), err)
}

// opLoop issues 4 KB operations at uniformly random blocks of ds, each
// when the previous one returned: ops of them if ops > 0, otherwise
// until end. A writeShare of them overwrite the block with its next
// version (an fs.Sync after every syncEvery writes); the rest read it
// and compare it byte for byte.
func opLoop(w workload, fs fileSystem, ds *dataset, seed int64, client, ops int, phaseStart, end time.Time, s *samples) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	buf := make([]byte, blockSize)
	want := make([]byte, blockSize)
	writes := 0
	prevEnd := phaseStart
	for i := 0; ops <= 0 || i < ops; i++ {
		start := time.Now()
		if ops <= 0 && !start.Before(end) {
			return
		}
		s.late = append(s.late, start.Sub(prevEnd))
		s.attempted++
		b := rng.Intn(len(ds.versions))
		if rng.Float64() < w.writeShare {
			ds.versions[b]++
			fillBlock(buf, seed, client, b, ds.versions[b])
			start = time.Now()
			_, err := ds.file.WriteAt(buf, int64(b)*blockSize)
			prevEnd = time.Now()
			if err != nil {
				s.fail(err)
				continue
			}
			s.writes = append(s.writes, prevEnd.Sub(start))
			s.done(w, phaseStart, prevEnd, prevEnd.Sub(start))
			if writes++; w.syncEvery > 0 && writes%w.syncEvery == 0 {
				err := fs.Sync()
				end := time.Now()
				s.syncs = append(s.syncs, end.Sub(prevEnd))
				prevEnd = end
				if err != nil {
					s.fail(err)
				}
			}
			continue
		}
		n, err := ds.file.ReadAt(buf, int64(b)*blockSize)
		prevEnd = time.Now()
		if err == nil && n != blockSize {
			err = fmt.Errorf("short read of block %d: %d bytes", b, n)
		}
		if err == nil {
			fillBlock(want, seed, client, b, ds.versions[b])
			if !bytes.Equal(buf, want) {
				s.mismatches++
				err = fmt.Errorf("block %d of client %d: content mismatch", b, client)
			}
		}
		if err != nil {
			s.fail(err)
			continue
		}
		s.reads = append(s.reads, prevEnd.Sub(start))
		s.done(w, phaseStart, prevEnd, prevEnd.Sub(start))
	}
}

// parallel runs fn for each client index and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
