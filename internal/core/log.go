package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// ErrNotFound is returned for a fragment that no server holds, in a
	// stripe no server holds a member of, by broadcasts every server
	// answered: it was never written, or its stripe was reclaimed.
	ErrNotFound = errors.New("core: fragment not found")
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

// fragBuilder accumulates entries for the currently open fragment. Its
// frame is a pool buffer of the fragment size with HeaderSize free at
// the front; entries are appended to the payload behind it and the
// header is encoded in place at seal, so the frame is what ships.
type fragBuilder struct {
	fid     wire.FID
	stripe  uint64
	index   uint8
	frame   []byte // HeaderSize + payloadSize, from the wire pool
	payload []byte // frame[HeaderSize:]
	off     int
}

// sealedFrag is a fragment ready to ship to its server. It owns frame,
// a pool buffer: a parity frame goes back to the pool when its store
// completes, a data frame when its store is acked and its member slot
// lets go of it (DESIGN.md §3.3).
type sealedFrag struct {
	conn  transport.ServerConn
	fid   wire.FID
	frame []byte // header + payload[:dataLen]
	mark  bool
	data  bool // a data member, held in its slot for read-your-writes
}

// stripeState is everything the log knows about one of its stripes
// (DESIGN.md §3.3). The paths that learn about a stripe create its
// record (stripeLocked); it dies in one place, dropStripeLocked. Paths
// that only settle state (a store completing, a held frame let go, a
// degraded member cleared) never create one, so a store that lands
// after a reclaim cannot bring its stripe back. Guarded by Log.mu.
type stripeState struct {
	// epoch is the placement epoch the stripe opened under when pinned
	// (it opened this session); epochOfLocked falls back to the head.
	epoch  uint32
	pinned bool
	// geom is a header of the stripe carrying its MemberLens (zero until
	// noteStripe learns one): everything the stripe decoder needs, so
	// later reconstructions cost only their survivors' reads.
	geom       Header
	empty      uint16 // members the stripe closed without storing, bit i = member i
	prealloced bool   // slots reserved (PreallocStripes), parity not yet sealed
	members    [MaxWidth]memberSlot
}

// memberSlot is what the log knows about one member of a stripe.
type memberSlot struct {
	// server is where the member is stored or, when degraded, where its
	// store was sent; 0 when unknown (server IDs start at 1).
	server wire.ServerID
	// frame is a sealed data member's frame (a pool buffer) kept for
	// read-your-writes until its store is acked. A member whose store
	// failed keeps it: local reads and RebuildServer serve it from here.
	frame    []byte
	storing  bool // a store of frame is in flight; it releases frame if the slot has let go
	degraded bool // store skipped, server unreachable, stripe still redundancy-covered
}

// release lets go of the slot's held frame and returns it for the
// caller to release: nil while a store of it is in flight, whose
// completion (storeDone) releases it instead.
func (m *memberSlot) release() []byte {
	frame, storing := m.frame, m.storing
	m.frame, m.storing = nil, false
	if storing {
		return nil
	}
	return frame
}

// degradedMembers counts the stripe's degraded members.
func (s *stripeState) degradedMembers() (n int) {
	for _, m := range s.members {
		if m.degraded {
			n++
		}
	}
	return n
}

// blank reports whether the record holds nothing a lookup would find.
func (s *stripeState) blank() bool {
	for _, m := range s.members {
		if m.server != 0 || m.frame != nil || m.degraded {
			return false
		}
	}
	return !s.pinned && s.empty == 0 && !s.prealloced && !s.geom.HasMemberLens()
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
	closed     bool                    // guarded by mu
	seq        uint64                  // next fragment sequence number; guarded by mu
	cur        *fragBuilder            // guarded by mu
	pacc       *parityAccum            // guarded by mu
	ckpts      map[ServiceID]BlockAddr // guarded by mu
	registered map[ServiceID]bool      // guarded by mu
	// stripes holds the record of every stripe of this log the session
	// has opened or learned about (stripeState). Guarded by mu.
	stripes map[uint64]*stripeState
	// pendingDel holds orphans awaiting deletion on a server that was
	// unreachable: members of reclaimed stripes, migrated-away source
	// copies (NoteOrphan) and released reservations. Guarded by mu.
	pendingDel map[wire.FID]wire.ServerID
	needPre    []uint64   // stripes awaiting preallocation; guarded by mu
	unreserve  []wire.FID // reserved slots of empty members, awaiting release; guarded by mu
	// preMu orders reservations before releases: a stripe's empty
	// members are released only after its reservations have been made.
	preMu sync.Mutex
	// acls is the per-server fragment protection, mutable because
	// AddServer admits new servers with their own AIDs. Guarded by mu.
	acls      map[wire.ServerID]wire.AID
	usage     *UsageTable
	recon     *fragCache
	readahead bool

	// releaseFrame returns a fragment frame to the wire pool once nothing
	// references it: wire.PutBuffer, swapped by tests that count releases.
	releaseFrame func(frame []byte)

	// engine is the fragment I/O engine: per-server request queues,
	// scatter-gather fetch and singleflight. Every fragment store and
	// fetch goes through it; it retries nothing (transport.Resilient is
	// the one retry layer).
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
	Reconstructions   int64 // lost members decoded from their stripes: whole fragments and ranges alike
	BroadcastFallback int64
	// RangeReconstructions counts the Reconstructions that decoded only
	// the byte range a degraded read needed (Log.Read on a lost
	// fragment) from the same range of k survivors, not the whole
	// fragment.
	RangeReconstructions int64
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
		stripes:      make(map[uint64]*stripeState),
		pendingDel:   make(map[wire.FID]wire.ServerID),
		acls:         make(map[wire.ServerID]wire.AID, len(cfg.ACLs)),
		usage:        NewUsageTable(),
		recon:        newFragCache(max(8, 2*cfg.ReadaheadFragments)),
		readahead:    cfg.ReadaheadFragments > 0,
		releaseFrame: wire.PutBuffer,
	}
	for id, aid := range cfg.ACLs {
		l.acls[id] = aid
	}
	if parity {
		l.nparity = cfg.ParityShards
		l.pacc = newParityAccum(code, l.payloadSize)
	}
	l.engine = fragio.New(place, fragio.Options{
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
	for _, st := range l.stripes {
		if spare := int64(l.nparity - st.degradedMembers()); spare < s.MinSpareRedundancy {
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
	if s := l.stripes[stripe]; s != nil && s.pinned {
		return s.epoch
	}
	return l.place.Epoch()
}

// stripeLocked returns stripe's record, creating it: the paths that
// learn about a stripe call it. Callers hold mu.
func (l *Log) stripeLocked(stripe uint64) *stripeState {
	s := l.stripes[stripe]
	if s == nil {
		s = &stripeState{}
		l.stripes[stripe] = s
	}
	return s
}

// dropStripeLocked forgets stripe: the one place a record dies.
// Callers hold mu.
func (l *Log) dropStripeLocked(stripe uint64) { delete(l.stripes, stripe) }

// recordLocked returns the record of fid's stripe (nil for another
// client's FID or a stripe without one) and fid's index in it. It never
// creates a record. Callers hold mu.
func (l *Log) recordLocked(fid wire.FID) (*stripeState, int) {
	if fid.Client() != l.client {
		return nil, 0
	}
	return l.stripes[l.stripeOf(fid.Seq())], int(fid.Seq() % uint64(l.width))
}

// slotLocked returns fid's slot, nil where recordLocked finds no record.
func (l *Log) slotLocked(fid wire.FID) *memberSlot {
	if s, i := l.recordLocked(fid); s != nil {
		return &s.members[i]
	}
	return nil
}

// noteLocationLocked records that fid lives on server id, creating its
// stripe's record, and returns fid's slot; nil for another client's FID,
// which gets no record. Callers hold mu.
func (l *Log) noteLocationLocked(fid wire.FID, id wire.ServerID) *memberSlot {
	if fid.Client() != l.client {
		return nil
	}
	m := &l.stripeLocked(l.stripeOf(fid.Seq())).members[fid.Seq()%uint64(l.width)]
	m.server = id
	return m
}

// noteStoredLocked records that fid is now stored on server id (a
// rebuild or a migration put it there): the member is no longer
// degraded, and its slot lets go of a held frame, which is returned for
// the caller to release once mu is dropped. Callers hold mu.
func (l *Log) noteStoredLocked(fid wire.FID, id wire.ServerID) []byte {
	m := l.noteLocationLocked(fid, id)
	if m == nil {
		return nil
	}
	m.degraded = false
	return m.release()
}

// serverOfLocked returns fid's recorded server, 0 when unknown.
// Callers hold mu.
func (l *Log) serverOfLocked(fid wire.FID) wire.ServerID {
	if m := l.slotLocked(fid); m != nil {
		return m.server
	}
	return 0
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
	s := l.stripeLocked(stripe)
	if !s.pinned {
		// Pin the stripe to the head epoch. Membership changes close the
		// open stripe before publishing a new view, so the pin covers
		// every member the stripe will ever seal.
		s.epoch, s.pinned = l.place.Epoch(), true
	}
	frame := wire.GetBuffer(l.fragSize)
	l.cur = &fragBuilder{
		fid:     fid,
		stripe:  stripe,
		index:   uint8(l.seq % uint64(l.width)),
		frame:   frame,
		payload: frame[HeaderSize:],
	}
	l.seq++
	if l.cfg.PreallocStripes && !s.prealloced {
		s.prealloced = true
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
	h := l.memberHeaderLocked(fb.fid, fb.payload[:dataLen])
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
	putHeader(fb.frame, &h)
	frame := fb.frame[:HeaderSize+dataLen]
	conn := l.connAtLocked(fb.stripe, int(fb.index))
	m := &l.stripeLocked(fb.stripe).members[fb.index]
	m.server, m.frame, m.storing = conn.ID(), frame, true
	l.stats.FragmentsSealed++
	l.stats.BytesStored += int64(len(frame))
	return sealedFrag{conn: conn, fid: fb.fid, frame: frame, mark: mark, data: true}
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
	s, i := l.recordLocked(fid)
	return s != nil && s.empty&(1<<i) != 0
}

// isEmpty is isEmptyLocked for callers not holding mu.
func (l *Log) isEmpty(fid wire.FID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.isEmptyLocked(fid)
}

// noteStripe learns what a fetched header of this log says about its
// stripe when it carries the stripe's MemberLens (the parity headers
// and the last data member's): the empty members, so later fetches of
// those are served locally, and the stripe's geometry.
func (l *Log) noteStripe(h *Header) {
	if h.FID.Client() != l.client || int(h.Width) != l.width || !h.HasMemberLens() {
		return
	}
	mask, _ := h.EmptyMembers()
	l.mu.Lock()
	s := l.stripeLocked(h.StripeID)
	if mask != 0 {
		s.empty = mask
	}
	s.geom = *h
	l.mu.Unlock()
}

// lastDataLocked reports whether stripe has no data slot left to open:
// it is full, or closeStripeLocked has moved the append point past it.
func (l *Log) lastDataLocked(stripe uint64) bool {
	return l.stripeOf(l.nextDataSeq(l.seq)) != stripe
}

// sealParityLocked emits all m parity fragments of stripe from the
// accumulators' frames and resets them for the next stripe.
func (l *Log) sealParityLocked(stripe uint64) []sealedFrag {
	lens := l.pacc.lens
	frames, maxLen := l.pacc.take()
	s := l.stripeLocked(stripe)
	out := make([]sealedFrag, 0, l.nparity)
	for j, buf := range frames {
		pIdx := l.paritySlot(stripe, j)
		fid := wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(pIdx))
		h := l.memberHeaderLocked(fid, buf[HeaderSize:HeaderSize+maxLen])
		h.Kind, h.MemberLens = FragParity, lens
		putHeader(buf, &h)
		frame := buf[:HeaderSize+maxLen]
		conn := l.connAtLocked(stripe, pIdx)
		s.members[pIdx].server = conn.ID()
		l.stats.ParityFragments++
		l.stats.BytesStored += int64(len(frame))
		out = append(out, sealedFrag{conn: conn, fid: fid, frame: frame})
	}
	s.prealloced = false // stripe complete: stop tracking
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
	s := l.stripeLocked(stripe)
	for seq := l.nextDataSeq(l.seq); seq < end; seq = l.nextDataSeq(seq + 1) {
		s.empty |= 1 << (seq - base)
		if s.prealloced {
			l.unreserve = append(l.unreserve, wire.MakeFID(l.client, seq))
		}
	}
	l.seq = end
}

// ship sends sealed fragments to their servers through the engine's
// per-server store queues, blocking on pipeline slots (flow control),
// then returning while stores complete asynchronously. The engine makes
// exactly one conn.Store call per fragment; retries are the connection's
// (transport.Resilient), and StatusExists — a response lost after the
// server committed — counts as success. ship takes ownership of each
// fragment's frame: storeDone releases it. swarmlint:owns-buffer
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
			// A failed store is a degraded write while its stripe stays
			// redundancy-covered (noteDegraded); otherwise the fragment is
			// not durable and Sync reports it. Either way a data member's
			// payload stays in its slot, so local reads keep working.
			if err != nil && !l.noteDegraded(f.fid, err) {
				l.setErr(fmt.Errorf("store fragment %v on server %d: %w", f.fid, f.conn.ID(), err))
			}
			l.storeDone(f, err)
		})
	}
}

// storeDone settles a finished store of f and releases its frame unless
// its member slot still needs it: a data member whose store failed
// keeps its frame until RebuildServer or ReclaimStripe lets go of it.
// An acked member's slot lets go here; if RebuildServer or ReclaimStripe
// let go while the store was in flight, they left the release to this
// call. swarmlint:owns-buffer
func (l *Log) storeDone(f sealedFrag, err error) {
	if f.data {
		l.mu.Lock()
		if m := l.slotLocked(f.fid); m != nil && m.frame != nil {
			if err != nil {
				m.storing = false
				l.mu.Unlock()
				return
			}
			m.frame, m.storing = nil, false
		}
		l.mu.Unlock()
	}
	l.releaseFrame(f.frame)
}

// noteDegraded records a failed fragment store as a degraded write when
// the stripe stays redundancy-covered (§2.1.2, §3.3): remote readers
// reconstruct the member from the stripe, and RebuildServer restores it
// once the server is replaced or revived. A stripe tolerates up to m
// missing members (one for the classic XOR parity), so the first m
// unreachable-server failures in a stripe degrade the write; the next
// (or any failure without parity, or any definitive server error like
// no-space) exhausts redundancy and the caller must surface it.
// Returns whether the failure was absorbed; a store whose stripe was
// reclaimed meanwhile leaves nothing to cover.
func (l *Log) noteDegraded(fid wire.FID, err error) bool {
	if !l.parity || !errors.Is(err, transport.ErrUnavailable) {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s, i := l.recordLocked(fid)
	if s == nil {
		return true
	}
	m := &s.members[i]
	if m.degraded {
		return true
	}
	n := s.degradedMembers()
	if n >= l.nparity {
		return false // redundancy exhausted: stripe at risk
	}
	if n == 0 {
		l.stats.DegradedStripes++
	}
	m.degraded = true
	l.stats.DegradedWrites++
	return true
}

// DegradedFIDs returns the fragments whose store was skipped because
// their server was unreachable, in sequence order. Their stripes remain
// redundancy-covered; RebuildServer (or ReclaimStripe) clears the
// members it resolves.
func (l *Log) DegradedFIDs() []wire.FID {
	return l.membersWhere(func(m *memberSlot) bool { return m.degraded })
}

// membersWhere returns, in sequence order, the members whose slot
// satisfies keep.
func (l *Log) membersWhere(keep func(m *memberSlot) bool) []wire.FID {
	l.mu.Lock()
	var out []wire.FID
	for stripe, s := range l.stripes {
		for i := range s.members[:l.width] {
			if keep(&s.members[i]) {
				out = append(out, wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(i)))
			}
		}
	}
	l.mu.Unlock()
	slices.Sort(out)
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
		if l.DeleteFrom(conn, fid) != nil {
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
// the servers and drops its record and usage entry. The cleaner calls
// this after moving the stripe's live blocks. Members known to be empty
// were never stored and cost no delete. A member whose delete fails
// stays in the record, with the stripe's epoch and empty members, so the
// cleaner's retry resolves it where it is.
func (l *Log) ReclaimStripe(stripe uint64) error {
	l.mu.Lock()
	active := stripe >= l.stripeOf(l.nextDataSeq(l.seq))
	l.mu.Unlock()
	if active {
		return fmt.Errorf("core: stripe %d is still active", stripe)
	}
	var firstErr error
	for i := 0; i < l.width; i++ {
		fid := wire.MakeFID(l.client, stripe*uint64(l.width)+uint64(i))
		if l.isEmpty(fid) {
			continue
		}
		conn := l.connAt(stripe, i)
		err := l.DeleteFrom(conn, fid)
		if err != nil {
			// Try the recorded location before giving up (placement may
			// predate a configuration change).
			if alt := l.lookupConn(fid); alt != nil && alt != conn {
				conn, err = alt, l.DeleteFrom(alt, fid)
			}
		}
		if err != nil {
			if !errors.Is(err, transport.ErrUnavailable) {
				if firstErr == nil {
					firstErr = fmt.Errorf("delete fragment %v: %w", fid, err)
				}
				continue
			}
			// The server is unreachable, not refusing: the stripe's data
			// has already moved, so reclaim proceeds and the orphan
			// fragment is deleted once the server answers again
			// (FlushDeletes / RebuildServer).
			l.mu.Lock()
			l.pendingDel[fid] = conn.ID()
			l.stats.DeferredDeletes++
			l.mu.Unlock()
		}
		var frame []byte
		l.mu.Lock()
		if m := l.slotLocked(fid); m != nil {
			frame = m.release()
			*m = memberSlot{}
		}
		l.mu.Unlock()
		l.releaseFrame(frame)
		l.recon.drop(fid)
	}
	if firstErr != nil {
		return firstErr
	}
	l.mu.Lock()
	l.dropStripeLocked(stripe) // the stripe no longer exists anywhere
	l.mu.Unlock()
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
	pending := maps.Clone(l.pendingDel)
	l.mu.Unlock()
	for fid, id := range pending {
		// An orphan on a server removed from the cluster died with it.
		if conn := l.place.Conn(id); conn == nil || l.DeleteFrom(conn, fid) == nil {
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
	id := l.serverOfLocked(fid)
	l.mu.Unlock()
	// No recorded location (0), or one on a removed server, resolves to
	// nil; callers treat that as a miss and fall back to placement or
	// discovery.
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
