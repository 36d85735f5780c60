package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"swarm/internal/erasure"
	"swarm/internal/fragio"
	"swarm/internal/model"
	"swarm/internal/placement"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Log errors.
var (
	// ErrClosed is returned for operations on a closed log.
	ErrClosed = errors.New("core: log closed")
	// ErrLost is returned when a fragment is unavailable and cannot be
	// reconstructed (more failures than parity tolerates).
	ErrLost = errors.New("core: fragment lost")
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("core: invalid config")
)

// Config parameterizes one client's log.
type Config struct {
	// Client is this log's owner; it scopes the FID space.
	Client wire.ClientID
	// Servers are the storage servers, in cluster order. Placement is
	// deterministic over this order, so give every client the same list.
	Servers []transport.ServerConn
	// FragmentSize is the fragment size in bytes; it must match the
	// servers' slot size. Defaults to 1 MB (the paper's prototype).
	FragmentSize int
	// Width is the stripe width including parity. Defaults to
	// min(len(Servers), MaxWidth). Must be ≤ len(Servers) so stripe
	// members land on distinct servers.
	Width int
	// DisableParity turns off parity fragments (used by the raw-write
	// benchmark's single-server configuration, and by anyone who prefers
	// capacity over availability).
	DisableParity bool
	// ParityShards is the number of redundancy fragments per stripe (m):
	// the stripe survives any m simultaneous member losses. Defaults
	// to 1 (the paper's single rotating parity). Must leave at least one
	// data slot (m < Width).
	ParityShards int
	// Codec selects the erasure code. Defaults to XOR for ParityShards
	// ≤ 1 (the paper's single rotating parity) and Reed–Solomon
	// otherwise. The codec is stamped into every fragment header, so
	// readers decode each stripe with the code that wrote it and logs
	// may mix formats freely.
	Codec erasure.Kind
	// PipelineDepth bounds in-flight fragment stores per server. The
	// default of 2 mirrors the prototype: one fragment crosses the
	// network while the server writes the previous one to disk (§2.1.2).
	PipelineDepth int
	// PreallocStripes reserves every member slot of a stripe on its
	// servers when the stripe opens (the paper's preallocate operation,
	// §2.2), guaranteeing that a started stripe — including its parity —
	// can always be stored even if other clients fill the servers in the
	// meantime. Costs one control round trip per member per stripe.
	PreallocStripes bool
	// ReadaheadFragments, when positive, enables fragment-grained read
	// caching: a block read that misses fetches the whole fragment and
	// caches it, so sequential cold reads cost one server round trip per
	// fragment instead of one per block. This is the prefetch the
	// paper names as the obvious missing read optimization (§3.4: "the
	// clients do not prefetch blocks from the servers. Both of these
	// optimizations would greatly improve the performance of reads that
	// miss in the client cache"). The value is the number of fragments
	// held.
	ReadaheadFragments int
	// ACLs, when non-empty, protects every stored fragment with the
	// given per-server access control list (each server assigns its own
	// AIDs, hence the map). Fragments are stored with a single byte
	// range covering the whole fragment (§2.3.2).
	ACLs map[wire.ServerID]wire.AID
	// CPU, when set, charges client log-processing work to a modeled
	// processor (benchmarks reproducing the paper's 200 MHz clients).
	CPU *model.CPU
	// FragOverhead is fixed client work charged per sealed fragment.
	FragOverhead time.Duration
}

// DefaultFragmentSize is the paper's fragment size.
const DefaultFragmentSize = 1 << 20

// fragBuilder accumulates entries for the currently open fragment.
type fragBuilder struct {
	fid     wire.FID
	stripe  uint64
	index   uint8
	payload []byte
	off     int
}

// sealedFrag is a fragment ready to ship to its server.
type sealedFrag struct {
	conn    transport.ServerConn
	fid     wire.FID
	frame   []byte // header + payload[:dataLen]
	mark    bool
	payload []byte // payload view for read-your-writes
}

// Log is one client's striped log.
type Log struct {
	cfg         Config
	client      wire.ClientID
	place       *placement.Map // versioned server membership; owns all conn lookup
	width       int
	parity      bool
	nparity     int          // parity shards per stripe (0 when parity is off)
	codec       erasure.Code // nil when parity is off
	fragSize    int
	payloadSize int

	mu         sync.Mutex
	closed     bool                                  // guarded by mu
	seq        uint64                                // next fragment sequence number; guarded by mu
	cur        *fragBuilder                          // guarded by mu
	pacc       *parityAccum                          // guarded by mu
	ckpts      map[ServiceID]BlockAddr               // guarded by mu
	registered map[ServiceID]bool                    // guarded by mu
	locations  map[wire.FID]wire.ServerID            // guarded by mu
	inflight   map[wire.FID][]byte                   // guarded by mu
	degraded   map[uint64]map[wire.FID]wire.ServerID // per-stripe set of stores skipped: server unreachable, stripe still redundancy-covered; guarded by mu
	pendingDel map[wire.FID]wire.ServerID            // reclaim deletes deferred: server unreachable when its stripe died; guarded by mu
	prealloced map[uint64]bool                       // stripes whose slots have been reserved; guarded by mu
	needPre    []uint64                              // stripes awaiting preallocation; guarded by mu
	unreserve  []wire.FID                            // reserved slots of empty members, awaiting release; guarded by mu
	// preMu orders reservations before releases: a stripe's empty
	// members are released only after its reservations have been made.
	preMu sync.Mutex
	// empty records, per stripe closed before its data slots filled, the
	// members it never stored (bit i = member i). Learned when this log
	// closes a stripe short and from any fetched header that carries its
	// stripe's MemberLens; entries die with their stripe. Guarded by mu.
	empty map[uint64]uint16
	// stripeEpochs pins each live stripe written this session to the
	// placement epoch it opened under; membership changes close the open
	// stripe first, so a stripe is wholly placed under one view. Entries
	// die with their stripe (ReclaimStripe). Guarded by mu.
	stripeEpochs map[uint64]uint32
	// acls is the per-server fragment protection, mutable because
	// AddServer admits new servers with their own AIDs. Guarded by mu.
	acls      map[wire.ServerID]wire.AID
	usage     *UsageTable
	recon     *fragCache
	readahead bool

	// engine is the fragment I/O engine: per-server request queues,
	// scatter-gather fetch, singleflight, and the store/retry policy.
	// Every fragment store and fetch goes through it.
	engine *fragio.Engine

	errMu sync.Mutex
	ioErr error

	stats LogStats
}

// LogStats counts log activity.
type LogStats struct {
	BlocksAppended    int64
	RecordsAppended   int64
	BlockBytes        int64 // application payload bytes in blocks
	FragmentsSealed   int64
	ParityFragments   int64
	BytesStored       int64 // total bytes shipped to servers (raw)
	Checkpoints       int64
	Reconstructions   int64
	BroadcastFallback int64
	// DegradedWrites counts fragment stores skipped because the server
	// was unreachable while the stripe stayed parity-covered; the write
	// path degrades instead of failing (RebuildServer restores them).
	DegradedWrites int64
	// DegradedStripes counts distinct stripes that entered degraded mode.
	DegradedStripes int64
	// DegradedPreallocs counts stripe-slot reservations skipped because
	// the slot's server was unreachable.
	DegradedPreallocs int64
	// DeferredDeletes counts reclaim-time fragment deletions deferred
	// because the fragment's server was unreachable; the stripe is still
	// reclaimed (its data has moved) and the orphan fragment is deleted
	// once the server answers again (FlushDeletes, RebuildServer).
	DeferredDeletes int64
	// MinSpareRedundancy is the distance to data loss: the minimum
	// number of additional member losses any currently degraded stripe
	// can absorb. Equal to ParityShards when nothing is degraded; zero
	// means some stripe is one failure from losing data. Computed at
	// snapshot time, not a counter.
	MinSpareRedundancy int64
	// PlacementEpoch is the head placement-map epoch (how many
	// membership changes this session has published). Snapshot, not a
	// counter.
	PlacementEpoch int64
	// ServersActive and ServersDraining describe the head placement
	// view. Snapshots, not counters.
	ServersActive   int64
	ServersDraining int64
	// RebalancedFragments and RebalancedBytes count fragments the
	// background rebalancer has migrated off draining servers (verified
	// at their new home before the source copy was deleted).
	RebalancedFragments int64
	RebalancedBytes     int64
}

// Open opens (or recovers) a client's log and returns the recovery
// information services need to replay. A fresh log yields an empty
// Recovery.
func Open(cfg Config) (*Log, *Recovery, error) {
	if len(cfg.Servers) == 0 {
		return nil, nil, fmt.Errorf("%w: no servers", ErrConfig)
	}
	if cfg.FragmentSize == 0 {
		cfg.FragmentSize = DefaultFragmentSize
	}
	if cfg.FragmentSize <= HeaderSize+EntryHdrSize {
		return nil, nil, fmt.Errorf("%w: fragment size %d too small", ErrConfig, cfg.FragmentSize)
	}
	if cfg.Width == 0 {
		cfg.Width = len(cfg.Servers)
		if cfg.Width > MaxWidth {
			cfg.Width = MaxWidth
		}
	}
	if cfg.Width < 1 || cfg.Width > MaxWidth {
		return nil, nil, fmt.Errorf("%w: width %d out of range", ErrConfig, cfg.Width)
	}
	if cfg.Width > len(cfg.Servers) {
		return nil, nil, fmt.Errorf("%w: width %d exceeds %d servers", ErrConfig, cfg.Width, len(cfg.Servers))
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 2
	}
	parity := cfg.Width >= 2 && !cfg.DisableParity
	if cfg.ParityShards == 0 {
		cfg.ParityShards = 1
	}
	if cfg.Codec == 0 {
		if cfg.ParityShards > 1 {
			cfg.Codec = erasure.KindRS
		} else {
			cfg.Codec = erasure.KindXOR
		}
	}
	var code erasure.Code
	if parity {
		if cfg.ParityShards >= cfg.Width {
			return nil, nil, fmt.Errorf("%w: %d parity shards leave no data slot in width %d", ErrConfig, cfg.ParityShards, cfg.Width)
		}
		var cerr error
		code, cerr = erasure.New(cfg.Codec, cfg.Width-cfg.ParityShards, cfg.ParityShards)
		if cerr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrConfig, cerr)
		}
	}
	place, perr := placement.New(cfg.Servers)
	if perr != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrConfig, perr)
	}
	l := &Log{
		cfg:          cfg,
		client:       cfg.Client,
		place:        place,
		width:        cfg.Width,
		parity:       parity,
		codec:        code,
		fragSize:     cfg.FragmentSize,
		payloadSize:  cfg.FragmentSize - HeaderSize,
		ckpts:        make(map[ServiceID]BlockAddr),
		registered:   make(map[ServiceID]bool),
		locations:    make(map[wire.FID]wire.ServerID),
		inflight:     make(map[wire.FID][]byte),
		degraded:     make(map[uint64]map[wire.FID]wire.ServerID),
		pendingDel:   make(map[wire.FID]wire.ServerID),
		prealloced:   make(map[uint64]bool),
		empty:        make(map[uint64]uint16),
		stripeEpochs: make(map[uint64]uint32),
		acls:         make(map[wire.ServerID]wire.AID, len(cfg.ACLs)),
		usage:        NewUsageTable(),
		recon:        newFragCache(max(8, 2*cfg.ReadaheadFragments)),
		readahead:    cfg.ReadaheadFragments > 0,
	}
	for id, aid := range cfg.ACLs {
		l.acls[id] = aid
	}
	if parity {
		l.nparity = cfg.ParityShards
		l.pacc = newParityAccum(code, l.payloadSize)
	}
	l.engine = fragio.New(cfg.Servers, fragio.Options{
		Format:     frameFormat{},
		StoreDepth: cfg.PipelineDepth,
	})
	// Sanity-check the fragment size against every reachable server: a
	// mismatch would otherwise surface as confusing store failures deep
	// into a run. Unreachable servers are tolerated (recovery handles
	// them), so a degraded cluster still opens.
	for _, sc := range cfg.Servers {
		st, err := sc.Stat()
		if err != nil {
			continue
		}
		if int(st.FragmentSize) != cfg.FragmentSize {
			return nil, nil, fmt.Errorf("%w: server %d uses %d-byte fragments, client configured for %d",
				ErrConfig, sc.ID(), st.FragmentSize, cfg.FragmentSize)
		}
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, fmt.Errorf("recover log: %w", err)
	}
	return l, rec, nil
}

// createRecBaseSize is the encoded size of a CreateRecord with an empty
// hint: FID(8) + Off(4) + Len(4) + hint length prefix(4).
const createRecBaseSize = 20

// MaxBlockSize returns the largest block this log accepts. A block and
// its creation record are always co-located in one fragment (so the
// cleaner sees them together), which costs two entry headers plus the
// record body.
func (l *Log) MaxBlockSize() int {
	return l.payloadSize - 2*EntryHdrSize - createRecBaseSize
}

// Client returns the owning client's ID.
func (l *Log) Client() wire.ClientID { return l.client }

// Width returns the stripe width (including parity, when enabled).
func (l *Log) Width() int { return l.width }

// ParityEnabled reports whether stripes carry a parity fragment.
func (l *Log) ParityEnabled() bool { return l.parity }

// Usage returns the log's stripe usage table.
func (l *Log) Usage() *UsageTable { return l.usage }

// Servers returns the log's current server connections (active and
// draining members of the head placement view).
func (l *Log) Servers() []transport.ServerConn { return l.place.Conns() }

// Stats returns a snapshot of activity counters.
func (l *Log) Stats() LogStats {
	head := l.place.Head()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.MinSpareRedundancy = int64(l.nparity)
	for _, set := range l.degraded {
		if spare := int64(l.nparity - len(set)); spare < s.MinSpareRedundancy {
			s.MinSpareRedundancy = spare
		}
	}
	s.PlacementEpoch = int64(head.Epoch)
	s.ServersActive = int64(head.NumActive())
	s.ServersDraining = int64(len(head.Members) - head.NumActive())
	return s
}

// ParityShards returns the number of redundancy fragments per stripe
// (0 when parity is disabled).
func (l *Log) ParityShards() int { return l.nparity }

// Codec returns the erasure code writing new stripes, or nil when
// parity is disabled.
func (l *Log) Codec() erasure.Code { return l.codec }

// EngineStats returns a snapshot of the fragment I/O engine's counters
// (fetches, gathers, broadcasts, deduplicated flights, store retries).
func (l *Log) EngineStats() fragio.Stats { return l.engine.Stats() }

// RegisterService tells the log a service exists. Registered services
// participate in the checkpoint floor: the cleaner may only reclaim
// stripes older than every registered service's last checkpoint.
func (l *Log) RegisterService(svc ServiceID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.registered[svc] = true
}

// ------------------------------------------------------- stripe geometry

func (l *Log) stripeOf(seq uint64) uint64 { return seq / uint64(l.width) }

// parityIndex returns the first parity member's index within stripe, or
// -1 when parity is disabled. Rotating the parity position by stripe
// number balances server load during reconstruction (§2.1.2). With m
// parity shards the slots are the m consecutive positions starting
// here (mod width); slot j=0 coincides with the classic single-parity
// position, so the legacy format is exactly the m=1 case.
func (l *Log) parityIndex(stripe uint64) int {
	if !l.parity {
		return -1
	}
	return int(stripe % uint64(l.width))
}

// paritySlot returns the member index of stripe's j-th parity shard.
func (l *Log) paritySlot(stripe uint64, j int) int {
	return int((stripe + uint64(j)) % uint64(l.width))
}

// parityOrdinal returns (j, true) when member index idx is stripe's
// j-th parity slot.
func (l *Log) parityOrdinal(stripe uint64, idx int) (int, bool) {
	if !l.parity {
		return 0, false
	}
	d := (idx - int(stripe%uint64(l.width)) + l.width) % l.width
	if d < l.nparity {
		return d, true
	}
	return 0, false
}

// dataOrdinal returns member index idx's data-shard ordinal: its rank
// among the stripe's non-parity slots. This is the shard numbering the
// erasure code sees (data 0..k-1, then parity k..k+m-1).
func (l *Log) dataOrdinal(stripe uint64, idx int) int {
	n := 0
	for x := 0; x < idx; x++ {
		if _, ok := l.parityOrdinal(stripe, x); !ok {
			n++
		}
	}
	return n
}

// epochOfLocked returns the placement epoch stripe was (or will be)
// written under: the epoch pinned when the stripe opened this session,
// else the head epoch. Callers hold mu.
func (l *Log) epochOfLocked(stripe uint64) uint32 {
	if epoch, ok := l.stripeEpochs[stripe]; ok {
		return epoch
	}
	return l.place.Epoch()
}

// connAtLocked resolves the server expected to hold member slot of
// stripe through the placement map, under the stripe's own epoch.
// Resolution falls forward to the head view when the assigned server
// has been removed (its fragments were migrated first). Callers hold mu.
func (l *Log) connAtLocked(stripe uint64, slot int) transport.ServerConn {
	return l.place.Resolve(l.epochOfLocked(stripe), stripe, slot)
}

// connAt is connAtLocked for callers not holding mu.
func (l *Log) connAt(stripe uint64, slot int) transport.ServerConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.connAtLocked(stripe, slot)
}

// fillGroup records the stripe's member placement in a header being
// sealed. Callers hold mu.
func (l *Log) fillGroup(h *Header) {
	for i := 0; i < l.width; i++ {
		h.Group[i] = l.connAtLocked(h.StripeID, i).ID()
	}
}

// nextDataSeq returns the first sequence number ≥ seq that is not a
// parity slot.
func (l *Log) nextDataSeq(seq uint64) uint64 {
	for l.parity {
		if _, ok := l.parityOrdinal(l.stripeOf(seq), int(seq%uint64(l.width))); !ok {
			break
		}
		seq++
	}
	return seq
}

// ------------------------------------------------------------ append path

// AppendBlock appends a block owned by svc and returns its address. The
// log layer automatically appends a creation record carrying hint, which
// is handed back to the service if the cleaner later moves the block
// (§2.1.4). The address is stable until then.
func (l *Log) AppendBlock(svc ServiceID, data []byte, hint []byte) (BlockAddr, error) {
	recSize := createRecBaseSize + len(hint)
	need := EntrySize(len(data)) + EntrySize(recSize)
	if need > l.payloadSize {
		return BlockAddr{}, fmt.Errorf("%w: %d > %d", ErrBlockTooLarge, len(data), l.MaxBlockSize())
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return BlockAddr{}, ErrClosed
	}
	sealed, fb := l.roomLocked(need)
	addr := BlockAddr{FID: fb.fid, Off: uint32(fb.off)}
	fb.off = AppendEntry(fb.payload, fb.off, EntryBlock, svc, data)
	rec := EncodeCreateRecord(&CreateRecord{Addr: addr, Len: uint32(len(data)), Hint: hint})
	fb.off = AppendEntry(fb.payload, fb.off, EntryCreate, svc, rec)
	stripe := fb.stripe
	l.stats.BlocksAppended++
	l.stats.BlockBytes += int64(len(data))
	l.mu.Unlock()
	l.ship(sealed)
	l.usage.AddBlock(stripe, EntrySize(len(data)))
	l.usage.AddRecord(stripe, EntrySize(len(rec)))
	return addr, nil
}

// roomLocked returns the open fragment with room for need more bytes,
// sealing a full one first; the sealed fragments are the caller's to
// ship once mu is released. The next fragment opens under the same hold
// of mu as the seal, so no other caller ever sees a stripe with sealed
// members and no open fragment: closeStripeLocked relies on that to
// seal the stripe's last data member itself.
func (l *Log) roomLocked(need int) ([]sealedFrag, *fragBuilder) {
	var sealed []sealedFrag
	if l.cur != nil && l.cur.off+need > l.payloadSize {
		sealed = l.sealCurrentLocked(false)
	}
	if l.cur == nil {
		l.openFragmentLocked()
	}
	return sealed, l.cur
}

// DeleteBlock marks a block deleted: a deletion record is appended and
// the block's space becomes reclaimable by the cleaner. The block's
// length must be supplied (services know it from their metadata).
func (l *Log) DeleteBlock(addr BlockAddr, length uint32, svc ServiceID) error {
	rec := EncodeDeleteRecord(&DeleteRecord{Addr: addr, Len: length})
	recAddr, err := l.append(EntryDelete, svc, rec)
	if err != nil {
		return err
	}
	l.usage.AddRecord(l.stripeOf(recAddr.FID.Seq()), EntrySize(len(rec)))
	l.usage.DeleteBlock(l.stripeOf(addr.FID.Seq()), EntrySize(int(length)))
	return nil
}

// AppendRecord appends a service-defined record and returns its position.
// Record writes are atomic and ordered (§2.1.1): the storage server's
// atomic fragment store provides atomicity, and the single append point
// provides ordering.
func (l *Log) AppendRecord(svc ServiceID, payload []byte) (BlockAddr, error) {
	if len(payload) > l.MaxBlockSize() {
		return BlockAddr{}, fmt.Errorf("%w: record %d > %d", ErrBlockTooLarge, len(payload), l.MaxBlockSize())
	}
	addr, err := l.append(EntryRecord, svc, payload)
	if err != nil {
		return BlockAddr{}, err
	}
	l.usage.AddRecord(l.stripeOf(addr.FID.Seq()), EntrySize(len(payload)))
	l.mu.Lock()
	l.stats.RecordsAppended++
	l.mu.Unlock()
	return addr, nil
}

// append places one entry in the log, sealing and shipping fragments as
// they fill. It blocks when the per-server pipeline is full — the
// backpressure that implements the prototype's flow control.
func (l *Log) append(kind EntryKind, svc ServiceID, payload []byte) (BlockAddr, error) {
	need := EntrySize(len(payload))
	if need > l.payloadSize {
		return BlockAddr{}, fmt.Errorf("%w: entry of %d bytes", ErrBlockTooLarge, len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return BlockAddr{}, ErrClosed
	}
	sealed, fb := l.roomLocked(need)
	addr := BlockAddr{FID: fb.fid, Off: uint32(fb.off)}
	fb.off = AppendEntry(fb.payload, fb.off, kind, svc, payload)
	l.mu.Unlock()
	l.ship(sealed)
	return addr, nil
}

func (l *Log) openFragmentLocked() {
	l.seq = l.nextDataSeq(l.seq)
	fid := wire.MakeFID(l.client, l.seq)
	stripe := l.stripeOf(l.seq)
	if _, ok := l.stripeEpochs[stripe]; !ok {
		// Pin the stripe to the head epoch. Membership changes close the
		// open stripe before publishing a new view, so the pin covers
		// every member the stripe will ever seal.
		l.stripeEpochs[stripe] = l.place.Epoch()
	}
	l.cur = &fragBuilder{
		fid:     fid,
		stripe:  stripe,
		index:   uint8(l.seq % uint64(l.width)),
		payload: make([]byte, l.payloadSize),
	}
	l.seq++
	if l.cfg.PreallocStripes && !l.prealloced[stripe] {
		l.prealloced[stripe] = true
		l.needPre = append(l.needPre, stripe)
	}
}

// sealCurrentLocked closes the open fragment (if any) and returns the
// fragments to ship: the data fragment, plus the stripe's parity fragment
// when this was the stripe's last data member.
func (l *Log) sealCurrentLocked(mark bool) []sealedFrag {
	if l.cur == nil {
		return nil
	}
	fb := l.cur
	l.cur = nil
	out := []sealedFrag{l.makeSealedLocked(fb, mark)}
	switch {
	case !l.parity:
		l.usage.FragmentSealed(fb.stripe, true)
	case l.lastDataLocked(fb.stripe):
		out = append(out, l.sealParityLocked(fb.stripe)...)
	}
	return out
}

func (l *Log) makeSealedLocked(fb *fragBuilder, mark bool) sealedFrag {
	dataLen := fb.off
	h := Header{
		Kind:       FragData,
		Width:      uint8(l.width),
		Index:      fb.index,
		FID:        fb.fid,
		StripeID:   fb.stripe,
		DataLen:    uint32(dataLen),
		PayloadCRC: crc32.ChecksumIEEE(fb.payload[:dataLen]),
	}
	l.stampGeometry(&h)
	l.fillGroup(&h)
	if l.parity {
		l.pacc.add(l.dataOrdinal(fb.stripe, int(fb.index)), int(fb.index), fb.payload[:dataLen])
		l.usage.FragmentSealed(fb.stripe, false)
		if l.lastDataLocked(fb.stripe) {
			// The stripe's last data member carries its lengths too: with
			// the m parity headers that makes m+1 copies, so any m lost
			// members still leave one naming the empty slots.
			h.MemberLens = l.pacc.lens
		}
	}
	frame := make([]byte, HeaderSize+dataLen)
	copy(frame, EncodeHeader(&h))
	copy(frame[HeaderSize:], fb.payload[:dataLen])
	conn := l.connAtLocked(fb.stripe, int(fb.index))
	l.locations[fb.fid] = conn.ID()
	l.inflight[fb.fid] = fb.payload[:dataLen]
	l.stats.FragmentsSealed++
	l.stats.BytesStored += int64(len(frame))
	return sealedFrag{conn: conn, fid: fb.fid, frame: frame, mark: mark, payload: fb.payload[:dataLen]}
}

// stampGeometry writes the log's erasure configuration and the stripe's
// placement epoch into a header. A parity-free log leaves the codec and
// parity count zero. Every header carries all three, so readers decode
// each stripe with the code that wrote it. Callers hold mu.
func (l *Log) stampGeometry(h *Header) {
	h.Epoch = l.epochOfLocked(h.StripeID)
	if !l.parity {
		return
	}
	h.Codec = uint8(l.codec.Kind())
	h.NumParity = uint8(l.nparity)
}

// isEmptyLocked reports whether fid is one of this log's members known
// to be empty: a data slot its stripe closed without filling, never
// stored, read as zero bytes.
func (l *Log) isEmptyLocked(fid wire.FID) bool {
	seq := fid.Seq()
	return fid.Client() == l.client && l.empty[l.stripeOf(seq)]&(1<<(seq%uint64(l.width))) != 0
}

// emptyOf returns the empty members of h's stripe known so far: those
// h records, if it carries MemberLens, and those this log has learned.
func (l *Log) emptyOf(h *Header) uint16 {
	mask, _ := h.EmptyMembers()
	if h.FID.Client() == l.client && int(h.Width) == l.width {
		l.mu.Lock()
		mask |= l.empty[h.StripeID]
		l.mu.Unlock()
	}
	return mask
}

// isEmpty is isEmptyLocked for callers not holding mu.
func (l *Log) isEmpty(fid wire.FID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.isEmptyLocked(fid)
}

// noteEmpty learns the empty members named by a fetched header that
// carries its stripe's MemberLens (the parity headers and the last data
// member's), so later fetches of those members are served locally.
func (l *Log) noteEmpty(h *Header) {
	if h.FID.Client() != l.client || int(h.Width) != l.width {
		return
	}
	if mask, ok := h.EmptyMembers(); ok && mask != 0 {
		l.mu.Lock()
		l.empty[h.StripeID] = mask
		l.mu.Unlock()
	}
}

// lastDataLocked reports whether stripe has no data slot left to open:
// it is full, or closeStripeLocked has moved the append point past it.
func (l *Log) lastDataLocked(stripe uint64) bool {
	return l.stripeOf(l.nextDataSeq(l.seq)) != stripe
}

// sealParityLocked emits all m parity fragments of stripe from the
// accumulators and resets them for the next stripe.
func (l *Log) sealParityLocked(stripe uint64) []sealedFrag {
	var maxLen uint32
	for _, n := range l.pacc.lens {
		if n > maxLen {
			maxLen = n
		}
	}
	out := make([]sealedFrag, 0, l.nparity)
	for j := 0; j < l.nparity; j++ {
		pIdx := l.paritySlot(stripe, j)
		fid := wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(pIdx))
		h := Header{
			Kind:       FragParity,
			Width:      uint8(l.width),
			Index:      uint8(pIdx),
			FID:        fid,
			StripeID:   stripe,
			DataLen:    maxLen,
			MemberLens: l.pacc.lens,
			PayloadCRC: crc32.ChecksumIEEE(l.pacc.bufs[j][:maxLen]),
		}
		l.stampGeometry(&h)
		l.fillGroup(&h)
		frame := make([]byte, HeaderSize+int(maxLen))
		copy(frame, EncodeHeader(&h))
		copy(frame[HeaderSize:], l.pacc.bufs[j][:maxLen])
		conn := l.connAtLocked(stripe, pIdx)
		l.locations[fid] = conn.ID()
		l.stats.ParityFragments++
		l.stats.BytesStored += int64(len(frame))
		out = append(out, sealedFrag{conn: conn, fid: fid, frame: frame})
	}
	l.pacc.reset()
	delete(l.prealloced, stripe) // stripe complete: stop tracking
	l.usage.FragmentSealed(stripe, true)
	return out
}

// closeStripeLocked seals the open fragment and closes its stripe, so
// the parity can be written now. Sync, checkpoints and membership changes
// use it so everything durable is also parity-protected. The data slots
// the stripe has not filled are skipped, not padded: the append point
// moves past them, the parity accumulator records them as length 0, and
// no fragment is allocated, stored or fetched for them — readers treat
// such a member as present and all zeros. The open fragment is sealed
// last, as the stripe's last data member, so its header carries the
// stripe's MemberLens beside the m parity headers.
//
// A stripe with sealed members always has an open fragment (roomLocked),
// so there is nothing to close when l.cur is nil.
func (l *Log) closeStripeLocked(mark bool) []sealedFrag {
	if l.cur == nil {
		return nil
	}
	if l.parity {
		l.skipUnfilledLocked(l.cur.stripe)
	}
	return l.sealCurrentLocked(mark)
}

// skipUnfilledLocked moves the append point past stripe's unopened data
// slots and records them as its empty members. A reservation made for
// one of them (PreallocStripes) is queued for release.
func (l *Log) skipUnfilledLocked(stripe uint64) {
	base, end := stripe*uint64(l.width), (stripe+1)*uint64(l.width)
	var mask uint16
	for seq := l.nextDataSeq(l.seq); seq < end; seq = l.nextDataSeq(seq + 1) {
		mask |= 1 << (seq - base)
		if l.prealloced[stripe] {
			l.unreserve = append(l.unreserve, wire.MakeFID(l.client, seq))
		}
	}
	l.seq = end
	if mask != 0 {
		l.empty[stripe] = mask
	}
}

// ship sends sealed fragments to their servers through the engine's
// per-server store queues, blocking on pipeline slots (flow control),
// then returning while stores complete asynchronously. The engine owns
// the retry policy: one extra attempt on bare connections, none on
// connections that already carry a resilience layer (stacked retries
// would multiply attempts against a down server), and StatusExists — a
// response lost after the server committed — counts as success.
func (l *Log) ship(frags []sealedFrag) {
	l.drainPreallocs()
	for _, f := range frags {
		f := f
		// Client-side log processing cost: marshalling and checksumming
		// the bytes shipped, plus fixed per-fragment work.
		if l.cfg.CPU != nil {
			l.cfg.CPU.Process(len(f.frame))
			l.cfg.CPU.Compute(l.cfg.FragOverhead)
		}
		ranges := l.rangesFor(f.conn, len(f.frame))
		l.engine.StoreAsync(f.conn, f.fid, f.frame, f.mark, ranges, func(err error) {
			if err != nil {
				if l.noteDegraded(f.fid, f.conn.ID(), err) {
					// Degraded write (§2.1.2, §3.3): the server is
					// unreachable but the stripe's parity still covers the
					// missing member. The payload stays in the
					// read-your-writes map, remote readers reconstruct
					// from the stripe, and RebuildServer restores the
					// fragment once the server is replaced or revived.
					return
				}
				// Redundancy exhausted (no parity, a second member of the
				// same stripe missing, or a definitive server error):
				// keep the payload in the read-your-writes map — the
				// fragment is not durable (Sync will report that), but
				// local reads keep working.
				l.setErr(fmt.Errorf("store fragment %v on server %d: %w", f.fid, f.conn.ID(), err))
				return
			}
			l.mu.Lock()
			delete(l.inflight, f.fid)
			l.mu.Unlock()
		})
	}
}

// noteDegraded records a failed fragment store as a degraded write when
// the stripe stays redundancy-covered. A stripe tolerates up to m
// missing members (one for the classic XOR parity), so the first m
// unreachable-server failures in a stripe degrade the write; the next
// (or any failure without parity, or any definitive server error like
// no-space) exhausts redundancy and the caller must surface it.
// Returns whether the failure was absorbed.
func (l *Log) noteDegraded(fid wire.FID, server wire.ServerID, err error) bool {
	if !l.parity || !errors.Is(err, transport.ErrUnavailable) {
		return false
	}
	stripe := l.stripeOf(fid.Seq())
	l.mu.Lock()
	defer l.mu.Unlock()
	set := l.degraded[stripe]
	if _, dup := set[fid]; dup {
		return true
	}
	if len(set) >= l.nparity {
		return false // redundancy exhausted: stripe at risk
	}
	if set == nil {
		set = make(map[wire.FID]wire.ServerID, l.nparity)
		l.degraded[stripe] = set
		l.stats.DegradedStripes++
	}
	set[fid] = server
	l.stats.DegradedWrites++
	return true
}

// clearDegradedLocked drops fid from its stripe's degraded set.
func (l *Log) clearDegradedLocked(fid wire.FID) {
	stripe := l.stripeOf(fid.Seq())
	if set := l.degraded[stripe]; set != nil {
		delete(set, fid)
		if len(set) == 0 {
			delete(l.degraded, stripe)
		}
	}
}

// DegradedFIDs returns the fragments whose store was skipped because
// their server was unreachable, in sequence order. Their stripes remain
// redundancy-covered; RebuildServer (or ReclaimStripe) clears the
// entries it resolves.
func (l *Log) DegradedFIDs() []wire.FID {
	l.mu.Lock()
	var out []wire.FID
	for _, set := range l.degraded {
		for fid := range set {
			out = append(out, fid)
		}
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// drainPreallocs reserves slots for any newly opened stripes, then
// releases the reservations of members their stripes closed without
// (skipUnfilledLocked). Called outside the log mutex because it talks to
// servers. A failed preallocation is recorded like an asynchronous store
// failure: the stripe is no more at risk than it would be without
// preallocation. An unreachable server is tolerated — its member will
// surface as a degraded write when the store is attempted, and a
// release it misses is retried like a deferred delete (FlushDeletes).
func (l *Log) drainPreallocs() {
	if !l.cfg.PreallocStripes {
		return
	}
	l.preMu.Lock()
	defer l.preMu.Unlock()
	l.mu.Lock()
	stripes, release := l.needPre, l.unreserve
	l.needPre, l.unreserve = nil, nil
	l.mu.Unlock()
	l.reserve(stripes)
	for _, fid := range release {
		conn := l.connAt(l.stripeOf(fid.Seq()), int(fid.Seq()%uint64(l.width)))
		if err := conn.Delete(fid); err != nil && !wire.IsStatus(err, wire.StatusNotFound) {
			l.mu.Lock()
			l.pendingDel[fid] = conn.ID()
			l.mu.Unlock()
		}
	}
}

// reserve preallocates every member slot of stripes on its server.
func (l *Log) reserve(stripes []uint64) {
	for _, stripe := range stripes {
		base := stripe * uint64(l.width)
		for i := 0; i < l.width; i++ {
			fid := wire.MakeFID(l.client, base+uint64(i))
			conn := l.connAt(stripe, i)
			err := conn.Prealloc(fid)
			if err == nil || wire.IsStatus(err, wire.StatusExists) {
				continue
			}
			if errors.Is(err, transport.ErrUnavailable) {
				l.mu.Lock()
				l.stats.DegradedPreallocs++
				l.mu.Unlock()
				continue
			}
			l.setErr(fmt.Errorf("prealloc fragment %v on server %d: %w", fid, conn.ID(), err))
			return
		}
	}
}

func (l *Log) setErr(err error) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if l.ioErr == nil {
		l.ioErr = err
	}
}

// Err returns the first asynchronous store error, if any.
func (l *Log) Err() error {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	return l.ioErr
}

// ClearErr clears the recorded asynchronous error (after the caller has
// handled it).
func (l *Log) ClearErr() {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	l.ioErr = nil
}

// waitInflight blocks until every dispatched store has completed.
func (l *Log) waitInflight() {
	l.engine.Wait()
}

// Sync seals the open fragment, closes its stripe so parity covers
// everything written (the stripe's unfilled data slots become empty
// members, never stored), waits for all stores to complete, and reports
// any store error.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	sealed := l.closeStripeLocked(false)
	l.mu.Unlock()
	l.ship(sealed)
	l.waitInflight()
	return l.Err()
}

// WriteCheckpoint appends a checkpoint record for svc: the service's
// consistent state, the log layer's directory of every service's newest
// checkpoint, and the stripe usage table. The fragment holding the
// checkpoint is stored *marked* so recovery can find it with a LastMarked
// query (§2.3.1), and the stripe is closed and flushed before returning,
// so a completed WriteCheckpoint is durable and parity-protected.
func (l *Log) WriteCheckpoint(svc ServiceID, payload []byte) (BlockAddr, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return BlockAddr{}, ErrClosed
	}
	l.registered[svc] = true
	// Compute the record size first (it doesn't depend on the address
	// values), place the entry, then encode with the final directory.
	probe := CheckpointRecord{
		Directory: make(map[ServiceID]BlockAddr, len(l.ckpts)+1),
		Payload:   payload,
		Usage:     l.usage.Encode(),
	}
	for id, a := range l.ckpts {
		probe.Directory[id] = a
	}
	probe.Directory[svc] = BlockAddr{}
	need := EntrySize(len(EncodeCheckpointRecord(&probe)))
	if need > l.payloadSize {
		l.mu.Unlock()
		return BlockAddr{}, fmt.Errorf("%w: checkpoint of %d bytes", ErrBlockTooLarge, len(payload))
	}
	preSealed, fb := l.roomLocked(need)
	addr := BlockAddr{FID: fb.fid, Off: uint32(fb.off)}
	probe.Directory[svc] = addr
	rec := EncodeCheckpointRecord(&probe)
	fb.off = AppendEntry(fb.payload, fb.off, EntryCheckpoint, svc, rec)
	l.usage.AddRecord(l.stripeOf(addr.FID.Seq()), EntrySize(len(rec)))
	l.ckpts[svc] = addr
	l.stats.Checkpoints++
	sealed := append(preSealed, l.closeStripeLocked(true)...)
	l.mu.Unlock()
	l.ship(sealed)
	l.waitInflight()
	if err := l.Err(); err != nil {
		return BlockAddr{}, err
	}
	return addr, nil
}

// Checkpoint returns svc's latest checkpoint address, if any.
func (l *Log) Checkpoint(svc ServiceID) (BlockAddr, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.ckpts[svc]
	return a, ok
}

// CheckpointFloor returns the oldest checkpoint position across all
// registered services. Stripes wholly below the floor contain no records
// that could be replayed, so the cleaner may reclaim them (§2.1.4). A
// registered service that has never checkpointed pins the floor at zero.
func (l *Log) CheckpointFloor() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	floor := Pos{Seq: ^uint64(0)}
	if len(l.registered) == 0 {
		return Pos{}
	}
	for svc := range l.registered {
		a, ok := l.ckpts[svc]
		if !ok {
			return Pos{}
		}
		if p := PosOf(a); p.Less(floor) {
			floor = p
		}
	}
	return floor
}

// ReclaimStripe deletes every stored fragment of a closed stripe from
// the servers and drops its usage entry. The cleaner calls this after
// moving the stripe's live blocks. Members known to be empty were never
// stored and cost no delete.
func (l *Log) ReclaimStripe(stripe uint64) error {
	l.mu.Lock()
	if curStripe := l.stripeOf(l.nextDataSeq(l.seq)); stripe >= curStripe {
		l.mu.Unlock()
		return fmt.Errorf("core: stripe %d is still active", stripe)
	}
	base := stripe * uint64(l.width)
	fids := make([]wire.FID, 0, l.width)
	for i := 0; i < l.width; i++ {
		if fid := wire.MakeFID(l.client, base+uint64(i)); !l.isEmptyLocked(fid) {
			fids = append(fids, fid)
		}
	}
	l.mu.Unlock()

	var firstErr error
	for _, fid := range fids {
		conn := l.connAt(stripe, int(fid.Seq()-base))
		err := conn.Delete(fid)
		if err != nil && !wire.IsStatus(err, wire.StatusNotFound) {
			// Try the recorded location before giving up (placement may
			// predate a configuration change).
			if alt := l.lookupConn(fid); alt != nil && alt != conn {
				conn, err = alt, alt.Delete(fid)
			}
		}
		if err != nil && !wire.IsStatus(err, wire.StatusNotFound) {
			if errors.Is(err, transport.ErrUnavailable) {
				// The server is unreachable, not refusing: the stripe's
				// data has already moved, so reclaim proceeds and the
				// orphan fragment is deleted once the server answers
				// again (FlushDeletes / RebuildServer).
				l.mu.Lock()
				l.pendingDel[fid] = conn.ID()
				l.stats.DeferredDeletes++
				l.mu.Unlock()
			} else if firstErr == nil {
				firstErr = fmt.Errorf("delete fragment %v: %w", fid, err)
			}
		}
		l.mu.Lock()
		delete(l.locations, fid)
		delete(l.prealloced, stripe)
		l.clearDegradedLocked(fid)
		delete(l.inflight, fid)
		l.mu.Unlock()
		l.recon.drop(fid)
	}
	l.mu.Lock()
	delete(l.stripeEpochs, stripe) // the stripe no longer exists anywhere
	delete(l.empty, stripe)
	l.mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	l.usage.Drop(stripe)
	return nil
}

// FlushDeletes retries fragment deletions deferred by ReclaimStripe
// while a server was unreachable, returning how many remain pending.
// Orphans are harmless to durability — their stripes are already
// reclaimed — but they occupy slots and would confuse a server listing,
// so RebuildServer flushes them before surveying.
func (l *Log) FlushDeletes() int {
	l.mu.Lock()
	pending := make(map[wire.FID]wire.ServerID, len(l.pendingDel))
	for fid, id := range l.pendingDel {
		pending[fid] = id
	}
	l.mu.Unlock()
	for fid, id := range pending {
		conn := l.place.Conn(id)
		if conn == nil {
			// The server was removed from the cluster; the orphan died
			// with it.
			l.mu.Lock()
			delete(l.pendingDel, fid)
			l.mu.Unlock()
			continue
		}
		err := conn.Delete(fid)
		if err == nil || wire.IsStatus(err, wire.StatusNotFound) {
			l.mu.Lock()
			delete(l.pendingDel, fid)
			l.mu.Unlock()
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pendingDel)
}

func (l *Log) lookupConn(fid wire.FID) transport.ServerConn {
	l.mu.Lock()
	id, ok := l.locations[fid]
	l.mu.Unlock()
	if !ok {
		return nil
	}
	// A recorded location on a removed server resolves to nil; callers
	// treat that as a miss and fall back to placement or discovery.
	return l.place.Conn(id)
}

// Close syncs and shuts the log down.
func (l *Log) Close() error {
	err := l.Sync()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.Err()
}

// NextPos returns the position where the next entry will be appended
// (exposed for tests and the cleaner's progress accounting).
func (l *Log) NextPos() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		return Pos{Seq: l.cur.fid.Seq(), Off: uint32(l.cur.off)}
	}
	return Pos{Seq: l.nextDataSeq(l.seq)}
}
