package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"swarm/internal/wire"
)

// runResult is everything one run measured.
type runResult struct {
	w        workload
	setup    []time.Duration
	preload  time.Duration
	verify   time.Duration
	phase    time.Duration
	s        samples
	userB    int64 // live user bytes on the cluster (space denominator)
	ackB     int64 // bulk_write: bytes acknowledged by the final Sync
	slots    int64 // server slots held after the workload's last Sync
	before   snapshot
	after    snapshot
	syncLats []int64 // traced: disk fsync latencies in the timed phase
	verified int64   // bytes read back after the run
}

func (r *runResult) correct() bool {
	return r.s.mismatches == 0 && r.s.noSpace == 0 && r.s.failed == 0
}

func blocksFor(mb float64) int {
	n := int(mb * (1 << 20) / blockSize)
	per := writeChunk / blockSize
	return max(per, n/per*per)
}

// runOnce brings the cluster up o.setupReps times (timing each), runs
// the workload on the last one, checks it, and tears everything down.
// tr is nil for the untraced stack.
func runOnce(o options, tr *tracer) (_ *runResult, err error) {
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, fmt.Errorf("create run dir: %w", err)
	}
	defer func() {
		os.RemoveAll(dir)
		// Commit the deletion now, so the journal and discard work for
		// this run's disks is paid by this run rather than by the next.
		if err := syncDir(o.workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}()
	r := &runResult{w: o.w}

	var (
		cl      *cluster
		clients []*client
	)
	teardown := func() error {
		var err error
		for _, c := range clients {
			if cerr := c.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		clients = nil
		if cl != nil {
			if cerr := cl.close(); cerr != nil && err == nil {
				err = fmt.Errorf("close cluster: %w", cerr)
			}
			cl = nil
		}
		return err
	}
	defer func() {
		if terr := teardown(); terr != nil && err == nil {
			err = terr
		}
	}()
	for rep := 0; rep < o.setupReps; rep++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", rep))
		start := time.Now()
		cl, err = startCluster(sub, tr)
		if err != nil {
			return nil, err
		}
		for id := 1; id <= numClients; id++ {
			c, err := cl.connect(id, 0, blockCacheBytes)
			if err != nil {
				return nil, err
			}
			clients = append(clients, c)
		}
		r.setup = append(r.setup, time.Since(start))
		if rep < o.setupReps-1 {
			if err := teardown(); err != nil {
				return nil, err
			}
			os.RemoveAll(sub)
		}
	}

	w := o.w
	sets := make([][]*dataset, numClients)
	blocks := blocksFor(float64(w.preloadMB) * o.scale)
	path := "/data"
	if w.bulkMBPerSec > 0 {
		blocks = blocksFor(float64(w.bulkMBPerSec*o.seconds) * o.scale)
		path = "/bulk"
	}
	for i, c := range clients {
		for j, left := 0, blocks; left > 0; j++ {
			n := min(left, maxFileBlocks)
			p := fmt.Sprintf("%s%d", path, j)
			f, err := c.fs.Create(p)
			if err != nil {
				return nil, fmt.Errorf("create %s on client %d: %w", p, c.id, err)
			}
			sets[i] = append(sets[i], &dataset{path: p, file: f, versions: make([]uint32, n)})
			left -= n
		}
	}
	userB := int64(numClients) * int64(blocks) * blockSize
	if err := checkSpace(o, clients[0], cl, blocks); err != nil {
		return nil, err
	}

	if w.preloadMB > 0 {
		start := time.Now()
		errs := make([]error, numClients)
		parallel(numClients, func(i int) {
			for _, ds := range sets[i] {
				if errs[i] = writeSeq(clients[i].fs, ds, o.seed, i+1, 0, len(ds.versions), 0, nil, nil); errs[i] != nil {
					return
				}
			}
			errs[i] = clients[i].fs.Sync()
		})
		for i, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("preload client %d: %w", i+1, e)
			}
		}
		r.preload = time.Since(start)
		r.userB = userB
		if r.slots, err = slotsHeld(clients[0], cl); err != nil {
			return nil, err
		}
	}
	if w.killServer {
		if err := cl.kill(numServers - 1); err != nil {
			return nil, fmt.Errorf("close server %d: %w", numServers, err)
		}
	}
	if w.bulkMBPerSec == 0 {
		if err := warm(sets, o.seed); err != nil {
			return nil, err
		}
	}

	// Timed phase.
	per := make([]samples, numClients)
	r.before, err = takeSnapshot(clients, cl, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.disk.takeSyncLats()
		tr.on.Store(true)
	}
	start := time.Now()
	end := start.Add(time.Duration(o.seconds) * time.Second)
	parallel(numClients, func(i int) {
		if w.bulkMBPerSec > 0 {
			bulkLoop(w, clients[i].fs, sets[i], o.seed, i+1, start, &per[i])
		} else {
			opLoop(w, clients[i].fs, sets[i][0], o.seed, i+1, w.opsPerSec*o.seconds, start, end, &per[i])
		}
	})
	r.phase = time.Since(start)
	if tr != nil {
		tr.on.Store(false)
		r.syncLats = tr.disk.takeSyncLats()
	}
	r.after, err = takeSnapshot(clients, cl, tr)
	if err != nil {
		return nil, err
	}
	for i := range per {
		r.s.merge(&per[i])
	}
	if r.s.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", w.name, r.s.failed, r.s.attempted, r.s.firstErr)
	}

	writes := w.bulkMBPerSec > 0 || w.writeShare > 0
	if writes {
		// Acknowledge every write, then measure the space it holds.
		for i, c := range clients {
			if err := c.fs.Sync(); err != nil {
				return nil, fmt.Errorf("final sync of client %d: %w", i+1, err)
			}
		}
		r.userB = userB
		if w.bulkMBPerSec > 0 && r.s.failed == 0 {
			r.ackB = r.userB
		}
		if r.slots, err = slotsHeld(clients[0], cl); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := readBack(o, cl, &clients, sets, &r.s); err != nil {
			return nil, err
		}
		r.verify = time.Since(start)
		r.verified = r.userB
	}
	return r, nil
}

func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync %s: %w", path, err)
	}
	return nil
}

// warm reads one block in every 256 KB of each dataset, untimed, so the
// servers' extent caches and the degraded clients' breakers settle
// before timing starts.
func warm(sets [][]*dataset, seed int64) error {
	errs := make([]error, numClients)
	parallel(numClients, func(i int) {
		ds := sets[i][0]
		step := (256 << 10) / blockSize
		for b := 0; b < len(ds.versions) && errs[i] == nil; b += step {
			errs[i] = readCheck(ds, seed, i+1, b)
		}
	})
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("warm-up on client %d: %w", i+1, e)
		}
	}
	return nil
}

func readCheck(ds *dataset, seed int64, client, b int) error {
	buf := make([]byte, blockSize)
	want := make([]byte, blockSize)
	if _, err := ds.file.ReadAt(buf, int64(b)*blockSize); err != nil {
		return fmt.Errorf("read block %d: %w", b, err)
	}
	fillBlock(want, seed, client, b, ds.versions[b])
	if !bytes.Equal(buf, want) {
		return fmt.Errorf("block %d of client %d: content mismatch", b, client)
	}
	return nil
}

// readBack closes the clients (unmount: flush, checkpoint, sync),
// restarts the servers if the workload asks, recovers each client from
// the log and compares every byte of its file.
func readBack(o options, cl *cluster, clients *[]*client, sets [][]*dataset, s *samples) error {
	for _, c := range *clients {
		if err := c.close(); err != nil {
			return err
		}
	}
	*clients = nil
	if o.w.restart {
		if err := cl.restart(); err != nil {
			return fmt.Errorf("restart servers: %w", err)
		}
	}
	errs := make([]error, numClients)
	bad := make([]int, numClients)
	recovered := make([]*client, numClients)
	parallel(numClients, func(i int) {
		c, err := cl.connect(i+1, verifyReadahead, 0)
		if err != nil {
			errs[i] = err
			return
		}
		recovered[i] = c
		for _, ds := range sets[i] {
			f, err := c.fs.Open(ds.path)
			if err != nil {
				errs[i] = fmt.Errorf("reopen %s on client %d: %w", ds.path, i+1, err)
				return
			}
			if size, err := f.Size(); err != nil || size != ds.size() {
				errs[i] = fmt.Errorf("client %d: %s is %d bytes after recovery, want %d (%v)", i+1, ds.path, size, ds.size(), err)
				return
			}
			n, err := verifyAll(f, ds, o.seed, i+1)
			bad[i] += n
			if errs[i] = err; err != nil {
				return
			}
		}
	})
	for _, c := range recovered {
		if c != nil {
			*clients = append(*clients, c)
		}
	}
	for i := range errs {
		if errs[i] != nil {
			return errs[i]
		}
		if bad[i] > 0 {
			s.mismatches += bad[i]
			return fmt.Errorf("read-back of client %d: %d blocks differ from what was acknowledged", i+1, bad[i])
		}
	}
	return nil
}

// checkSpace fails before any data is written if the workload could run
// the servers out of slots. Each client's log takes one slot per server
// per stripe of dataShards fragments, and every Sync pads out the open
// stripe, so it costs a whole stripe however few bytes it carries.
func checkSpace(o options, c *client, cl *cluster, blocks int) error {
	w := o.w
	bytes := int64(blocks) * blockSize
	syncs := int64(4) // preload sync, final sync, unmount checkpoint, slack
	if w.bulkMBPerSec > 0 {
		syncs += bytes/(int64(w.syncMB)<<20) + 1
	}
	if w.writeShare > 0 {
		// The overwrite count is binomial around its mean; a fifth more
		// is far beyond any draw's reach.
		writes := int64(float64(w.opsPerSec*o.seconds)*w.writeShare*1.2) + int64(w.syncEvery)
		bytes += writes * blockSize
		syncs += writes/int64(w.syncEvery) + 1
	}
	perClient := (bytes+dataShards*usablePayload-1)/(dataShards*usablePayload) + syncs
	need := perClient * numClients
	stats, err := serverStats(c, cl)
	if err != nil {
		return err
	}
	for i, st := range stats {
		if int64(st.FreeSlots) < need {
			return fmt.Errorf("%s needs about %d free slots on each server, server %d has %d of %d: raise diskBytes or shrink the workload",
				w.name, need, i+1, st.FreeSlots, st.TotalSlots)
		}
	}
	return nil
}

func slotsHeld(c *client, cl *cluster) (int64, error) {
	stats, err := serverStats(c, cl)
	if err != nil {
		return 0, err
	}
	var held int64
	for _, st := range stats {
		held += int64(st.TotalSlots) - int64(st.FreeSlots)
	}
	return held, nil
}

func (s *samples) merge(o *samples) {
	s.reads = append(s.reads, o.reads...)
	s.writes = append(s.writes, o.writes...)
	s.syncs = append(s.syncs, o.syncs...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.goodAt = append(s.goodAt, o.goodAt...)
	s.mismatches += o.mismatches
	s.noSpace += o.noSpace
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// snapshot holds every counter read before and after the timed phase.
type snapshot struct {
	stingFlushes, stingInodes, stingBytesW, stingBytesR int64

	sealed, bytesStored, blockBytes, recons int64

	stores, reads, fetches, gatherMembers, kgathers, stragglers, storeRetries int64

	retries, fastFails int64

	srv wire.StatResponse // summed over live servers

	disk            diskCounts
	wireIn, wireOut uint64
	rpcReadBytes    int64

	cpu     time.Duration
	alloc   uint64
	gcCount uint32
}

func takeSnapshot(clients []*client, cl *cluster, tr *tracer) (snapshot, error) {
	var s snapshot
	for _, c := range clients {
		st := c.sting.Stats()
		s.stingFlushes += st.Flushes
		s.stingInodes += st.InodesOut
		s.stingBytesW += st.BytesWritten
		s.stingBytesR += st.BytesRead
		ls := c.log.Stats()
		s.sealed += ls.FragmentsSealed
		s.bytesStored += ls.BytesStored
		s.blockBytes += ls.BlockBytes
		s.recons += ls.Reconstructions
		es := c.log.EngineStats()
		s.stores += es.Stores
		s.reads += es.Reads
		s.fetches += es.Fetches
		s.gatherMembers += es.GatherMembers
		s.kgathers += es.KGathers
		s.stragglers += es.GatherStragglers
		s.storeRetries += es.StoreRetries
		for _, h := range c.health() {
			s.retries += h.Retries
			s.fastFails += h.FastFails
		}
	}
	stats, err := serverStats(clients[0], cl)
	if err != nil {
		return s, err
	}
	for _, st := range stats {
		s.srv.Stores += st.Stores
		s.srv.SyncRequests += st.SyncRequests
		s.srv.Syncs += st.Syncs
		s.srv.StoreNanos += st.StoreNanos
		s.srv.ReadHits += st.ReadHits
		s.srv.ReadMisses += st.ReadMisses
		s.srv.ReadaheadLoads += st.ReadaheadLoads
		s.srv.ReadBytesDisk += st.ReadBytesDisk
	}
	if tr != nil {
		s.disk = tr.disk.snapshot()
		if s.wireIn, s.wireOut, err = tr.wire.snapshot(); err != nil {
			return s, err
		}
		s.rpcReadBytes = tr.rpcReadBytes.Load()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	s.gcCount = ms.NumGC
	return s, nil
}
