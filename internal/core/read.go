package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"swarm/internal/fragio"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// frameFormat adapts the log's fragment header encoding to the fragment
// I/O engine, which fetches and validates frames without knowing the
// format (fragio sits below core in the dependency order).
type frameFormat struct{}

func (frameFormat) HeaderSize() uint32 { return HeaderSize }

func (frameFormat) Parse(fid wire.FID, hdr []byte) (any, uint32, error) {
	h, err := DecodeHeader(hdr)
	if err != nil {
		return nil, 0, err
	}
	if h.FID != fid {
		return nil, 0, fmt.Errorf("%w: fragment %v claims FID %v", ErrBadFragment, fid, h.FID)
	}
	return h, h.DataLen, nil
}

func (frameFormat) Verify(decoded any, payload []byte) error {
	h := decoded.(Header)
	if crc32.ChecksumIEEE(payload) != h.PayloadCRC {
		// A corrupted replica is as good as a missing one; callers fall
		// back to reconstruction from the stripe.
		return fmt.Errorf("%w: fragment %v payload checksum mismatch", ErrBadFragment, h.FID)
	}
	return nil
}

// fragCache holds recently reconstructed whole fragments (and, with
// readahead, fetched ones). A degraded read rents before it buys: it
// range decodes the bytes it needs until rent says the whole fragment
// is worth reconstructing into this cache, so a fragment read all over
// costs one whole gather, not hundreds of small ones. The cache keeps
// the rent per lost fragment; it restarts when the fragment is bought,
// so after its eviction the fragment is rented again before it is
// bought again.
type fragCache struct {
	mu     sync.Mutex
	cap    int
	m      map[wire.FID]cachedFrag // guarded by mu
	fifo   []wire.FID              // guarded by mu
	rented map[wire.FID]rental     // guarded by mu
}

// rental is what range decodes of one lost fragment have cost since it
// was last bought: the bytes they decoded, and where the last one ended.
type rental struct {
	bytes uint64
	end   uint32
}

// buyAfter is the rent-or-buy break-even of degraded reads, in whole
// fragments. A range decode reads the same survivors a whole
// reconstruction does, over fewer bytes, so bytes decoded stand for
// bytes moved on both paths: at 1, range decodes of a lost fragment
// have moved what one whole gather would have by the time the whole
// fragment is bought. That is the deterministic ski-rental rule, which
// never moves more than twice the bytes of the better choice made in
// hindsight (DESIGN.md §3.4).
const buyAfter = 1

type cachedFrag struct {
	header  Header
	payload []byte
}

func newFragCache(capacity int) *fragCache {
	return &fragCache{cap: capacity, m: make(map[wire.FID]cachedFrag, capacity), rented: make(map[wire.FID]rental)}
}

// rent charges the range decode of payload bytes [a, b) to the lost
// fragment fid and reports whether it is time to buy: its range decodes
// have reached limit bytes, or this one continues a scan. A read
// continues a scan when it starts after the last one ended, with a gap
// no longer than itself (the entries between two blocks: the first's
// create record, the second's entry header). A scan goes on to read the
// rest of the fragment, and a range decode costs k+1 round trips
// whatever its size, so renting a scan block by block would cost
// hundreds of gathers where buying costs one; bytes alone would not see
// that until the whole fragment had been rented.
func (c *fragCache) rent(fid wire.FID, a, b, limit uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, seen := c.rented[fid]
	scan := seen && a >= r.end && a-r.end <= b-a
	r.bytes += uint64(b - a)
	r.end = b
	c.rented[fid] = r
	return scan || r.bytes >= uint64(limit)
}

func (c *fragCache) get(fid wire.FID) (cachedFrag, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.m[fid]
	return f, ok
}

func (c *fragCache) put(fid wire.FID, f cachedFrag) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.rented, fid)
	if _, ok := c.m[fid]; ok {
		c.m[fid] = f
		return
	}
	for len(c.m) >= c.cap && len(c.fifo) > 0 {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		delete(c.m, old)
	}
	c.m[fid] = f
	c.fifo = append(c.fifo, fid)
}

// drop forgets fid. It leaves the FIFO too, so a fragment has one
// position at most: a stale one would later evict the fragment put again
// after it, out of order, and drops would grow the FIFO without bound.
func (c *fragCache) drop(fid wire.FID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fid]; ok {
		delete(c.m, fid)
		c.fifo = slices.DeleteFunc(c.fifo, func(f wire.FID) bool { return f == fid })
	}
	delete(c.rented, fid)
}

// Read returns n bytes starting at off within the block at addr. The fast
// paths serve from the open fragment buffer or in-flight fragments
// (read-your-writes); otherwise the block's server is contacted through
// the fragment I/O engine, and if it is unavailable the bytes are
// reconstructed from the fragment's stripe (§2.3.3, readLost).
func (l *Log) Read(addr BlockAddr, off, n uint32) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	// Local paths: the open fragment or a member's held frame.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	var local []byte
	if l.cur != nil && l.cur.fid == addr.FID {
		local = l.cur.payload[:l.cur.off]
	} else if m := l.slotLocked(addr.FID); m != nil && m.frame != nil {
		local = m.frame[HeaderSize:]
	}
	if local != nil {
		out, err := sliceBlock(local, addr, off, n)
		l.mu.Unlock()
		return out, err
	}
	l.mu.Unlock()

	// Reconstructed-fragment cache.
	if f, ok := l.recon.get(addr.FID); ok {
		return sliceBlock(f.payload, addr, off, n)
	}

	// Remote path. With readahead enabled, fetch and cache the whole
	// fragment: sequential cold reads then cost one round trip per
	// fragment instead of one per block.
	if l.readahead {
		h, payload, err := l.FetchFragment(addr.FID)
		if err != nil {
			return nil, err
		}
		l.recon.put(addr.FID, cachedFrag{header: h, payload: payload})
		return sliceBlock(payload, addr, off, n)
	}
	conn := l.lookupConn(addr.FID)
	if conn == nil {
		// No recorded location: look for the fragment by broadcast, as
		// fetchDirect does. If no server has it, readLost decides
		// whether it is lost or was never there.
		conn, _ = l.discover(addr.FID)
	}
	if conn != nil {
		data, err := l.engine.ReadAt(conn, addr.FID, HeaderSize+addr.Off+EntryHdrSize+off, n)
		if err == nil {
			return data, nil
		}
		if isHardReadError(err) {
			return nil, err
		}
		// Server unavailable or fragment missing: fall through.
	}
	return l.readLost(addr, off, n)
}

// readLost serves a read of an unavailable fragment from its stripe.
// It rents, then buys (fragCache.rent): while renting, the read decodes
// just its own bytes from the same range of k survivors (decode); the
// read that buys reconstructs the whole fragment into the fragment
// cache, which serves the reads after it. Concurrent readers of the
// same bytes share one flight (a caller of Log.Read that has no block
// cache in front of it, such as several readers of one hot block, pays
// one decode, not one each).
func (l *Log) readLost(addr BlockAddr, off, n uint32) ([]byte, error) {
	fid, a := addr.FID, addr.Off+EntryHdrSize+off
	v, shared, err := l.engine.SingleRange(fid, a, n, func() (any, error) {
		g, err := l.stripeGeometry(fid)
		if err != nil {
			return nil, err
		}
		missIdx := int(fid.Seq() - g.BaseSeq())
		fragLen := g.MemberLen(missIdx)
		if a+n > fragLen {
			return nil, fmt.Errorf("%w: read [%d,%d) beyond fragment data %d", ErrBadFragment, a, a+n, fragLen)
		}
		if !l.recon.rent(fid, a, a+n, buyAfter*fragLen) {
			return l.decode(g, missIdx, a, a+n)
		}
		_, payload, err := l.reconstruct(fid)
		if err != nil {
			return nil, err
		}
		return sliceBlock(payload, addr, off, n)
	})
	if err != nil {
		return nil, err
	}
	out := v.([]byte)
	if shared {
		// Every reader owns the bytes Read returns.
		out = append([]byte(nil), out...)
	}
	return out, nil
}

// decode decodes payload bytes [a, b) of member missIdx, a lost member
// of the stripe g describes (a header carrying MemberLens): the one
// stripe decoder behind degraded reads and whole reconstruction. XOR
// and Reed–Solomon are bytewise: byte i of the lost member depends only
// on byte i of k survivors, and a survivor shorter than i contributes a
// zero. So each survivor is read over [a, b) clamped to its length, and
// one that ends at or before a — an empty member among them — joins the
// decode as an empty shard without an RPC. The reads go through the
// engine's quorum gather: the first k to land are decoded and a
// straggler is recycled. A decode of the whole member, [0, its length),
// fetches whole survivors instead, which the engine checks against
// their PayloadCRC, so a corrupt survivor counts as missing and the
// hedge replaces it; a range cannot be checked (DESIGN.md §3.4).
func (l *Log) decode(g *Header, missIdx int, a, b uint32) ([]byte, error) {
	code, err := g.ErasureCode()
	if err != nil {
		return nil, fmt.Errorf("%w: stripe %d: %v", ErrBadFragment, g.StripeID, err)
	}
	whole := a == 0 && b == g.MemberLen(missIdx)
	width := int(g.Width)
	shards := make([][]byte, width)
	members := make([]fragio.Member, 0, width-1)
	idxs := make([]int, 0, width-1)
	got := 0
	l.mu.Lock()
	for i := 0; i < width; i++ {
		if i == missIdx {
			continue
		}
		end := min(b, g.MemberLen(i))
		if end <= a {
			shards[g.ShardOrdinal(i)] = []byte{}
			got++
			continue
		}
		m := fragio.Member{FID: g.MemberFID(i), Server: g.Group[i]}
		if !whole {
			m.Off, m.Len = a, end-a
		}
		if id := l.serverOfLocked(m.FID); id != 0 {
			m.Server = id
		}
		members = append(members, m)
		idxs = append(idxs, i)
	}
	l.mu.Unlock()
	k := code.DataShards()
	results := l.engine.GatherK(members, k-got)
	// The survivors' payloads only feed the decode, whose output is a
	// fresh allocation: they go back to the transport's pool on every
	// path.
	defer func() {
		for _, r := range results {
			wire.PutBuffer(r.Payload)
		}
	}()
	for ri, r := range results {
		if r.Err != nil {
			continue
		}
		idx := idxs[ri]
		if h, ok := r.Decoded.(Header); ok {
			if _, parity := g.ParityOrdinal(idx); parity != (h.Kind == FragParity) {
				// The stripe's real layout contradicts the geometry its
				// headers claim: decoding would silently corrupt.
				return nil, fmt.Errorf("%w: stripe %d member %d kind %d does not match its slot", ErrLost, g.StripeID, idx, h.Kind)
			}
		}
		p := r.Payload
		if p == nil {
			p = []byte{} // nil marks a missing shard
		}
		shards[g.ShardOrdinal(idx)] = p
		got++
	}
	if got < k {
		return nil, fmt.Errorf("%w: %d of %d stripe members available, need %d", ErrLost, got, width, k)
	}
	out, err := code.Reconstruct(shards, g.ShardOrdinal(missIdx), int(b-a))
	if err != nil {
		return nil, fmt.Errorf("%w: stripe %d: %v", ErrLost, g.StripeID, err)
	}
	l.mu.Lock()
	for _, r := range results {
		if r.Err == nil && r.From != r.Server {
			// The gather located the member by broadcast: remember where.
			l.noteLocationLocked(r.FID, r.From)
		}
	}
	l.stats.Reconstructions++
	if !whole {
		l.stats.RangeReconstructions++
	}
	l.mu.Unlock()
	return out, nil
}

// isHardReadError reports errors that reconstruction cannot help with
// (bad request, access denied).
func isHardReadError(err error) bool {
	return wire.IsStatus(err, wire.StatusBadRequest) || wire.IsStatus(err, wire.StatusAccess)
}

func sliceBlock(payload []byte, addr BlockAddr, off, n uint32) ([]byte, error) {
	start := int(addr.Off) + EntryHdrSize + int(off)
	end := start + int(n)
	if start > len(payload) || end > len(payload) {
		return nil, fmt.Errorf("%w: read [%d,%d) beyond fragment data %d", ErrBadFragment, start, end, len(payload))
	}
	out := make([]byte, n)
	copy(out, payload[start:end])
	return out, nil
}

// FetchFragment returns a fragment's header and payload, reconstructing
// if its server is unavailable. The cleaner, rebuild, and recovery scans
// all fetch through it.
func (l *Log) FetchFragment(fid wire.FID) (Header, []byte, error) {
	// Local copies first: the open fragment, then sealed fragments whose
	// store is in flight — or was skipped as a degraded write — from the
	// member's held frame, so the cleaner and recovery never pay a
	// reconstruction for data this client still holds. A member known to
	// be empty is served the same way, as zero bytes: it was never stored.
	// A held frame is served with the header encoded into it at seal.
	l.mu.Lock()
	if m := l.slotLocked(fid); m != nil && m.frame != nil {
		h, err := DecodeHeader(m.frame)
		payload := append([]byte(nil), m.frame[HeaderSize:]...)
		l.mu.Unlock()
		return h, payload, err
	}
	open := l.cur != nil && l.cur.fid == fid
	if open || l.isEmptyLocked(fid) {
		var p []byte
		if open {
			p = l.cur.payload[:l.cur.off]
		}
		h := l.memberHeaderLocked(fid, p)
		payload := append([]byte(nil), p...)
		l.mu.Unlock()
		return h, payload, nil
	}
	l.mu.Unlock()

	if f, ok := l.recon.get(fid); ok {
		return f.header, f.payload, nil
	}
	if h, payload, err := l.fetchDirect(fid); err == nil {
		return h, payload, nil
	}
	return l.reconstruct(fid)
}

// memberHeaderLocked builds the header of this log's member fid holding
// payload p, as a data member: the header a member is sealed with
// (sealParityLocked makes it a parity header), and that of a member
// served from local state with no encoded header, the open fragment or
// an empty member (p nil).
func (l *Log) memberHeaderLocked(fid wire.FID, p []byte) Header {
	seq := fid.Seq()
	h := Header{
		Kind: FragData, Width: uint8(l.width), Index: uint8(seq % uint64(l.width)),
		FID: fid, StripeID: l.stripeOf(seq), DataLen: uint32(len(p)),
		PayloadCRC: crc32.ChecksumIEEE(p),
	}
	l.stampGeometry(&h)
	l.fillGroup(&h)
	return h
}

// StripeMember is one member of a stripe fetched by FetchStripe.
type StripeMember struct {
	FID     wire.FID
	Header  Header
	Payload []byte
	Err     error
}

// FetchStripe fetches every member of a closed stripe concurrently
// through the fragment I/O engine — the cleaner's scan path. A member
// that can be neither read nor reconstructed carries an Err; callers
// decide what absence means (the cleaner skips it, a verifier fails).
func (l *Log) FetchStripe(stripe uint64) []StripeMember {
	base := stripe * uint64(l.width)
	seqs := make([]uint64, l.width)
	for i := range seqs {
		seqs[i] = base + uint64(i)
	}
	frags := l.fetchSeqs(seqs, l.FetchFragment)
	out := make([]StripeMember, l.width)
	for i, seq := range seqs {
		f := frags[seq]
		out[i] = StripeMember{FID: wire.MakeFID(l.client, seq), Header: f.header, Payload: f.payload, Err: f.err}
	}
	return out
}

// fetchedFrag is one result of a fetchSeqs fan-out.
type fetchedFrag struct {
	header  Header
	payload []byte
	err     error
}

// fetchSeqs fetches a set of this log's fragments concurrently, each
// through fetch. The engine's per-server queues bound the fan-out.
// Fragments with a recorded location go first: a stripe's parity and
// last data member are among them, and their headers name its empty
// members (noteStripe), so the second round serves those locally instead
// of searching the cluster for fragments that were never stored.
func (l *Log) fetchSeqs(seqs []uint64, fetch func(wire.FID) (Header, []byte, error)) map[uint64]fetchedFrag {
	var located, rest []uint64
	l.mu.Lock()
	for _, seq := range seqs {
		if l.serverOfLocked(wire.MakeFID(l.client, seq)) != 0 {
			located = append(located, seq)
		} else {
			rest = append(rest, seq)
		}
	}
	l.mu.Unlock()
	m := make(map[uint64]fetchedFrag, len(seqs))
	for _, round := range [][]uint64{located, rest} {
		out := make([]fetchedFrag, len(round))
		var wg sync.WaitGroup
		for i, seq := range round {
			wg.Add(1)
			go func(i int, seq uint64) {
				defer wg.Done()
				h, p, err := fetch(wire.MakeFID(l.client, seq))
				out[i] = fetchedFrag{header: h, payload: p, err: err}
			}(i, seq)
		}
		wg.Wait()
		for i, seq := range round {
			m[seq] = out[i]
		}
	}
	return m
}

// fetchDirect reads a fragment from the server believed to hold it,
// falling back to broadcast discovery — the self-hosting mechanism that
// needs no fragment directory (§2.3.3).
func (l *Log) fetchDirect(fid wire.FID) (Header, []byte, error) {
	conn := l.lookupConn(fid)
	if conn == nil {
		var err error
		conn, err = l.discover(fid)
		if err != nil {
			return Header{}, nil, err
		}
	}
	return l.engineFetch(conn, fid)
}

// engineFetch fetches and validates one whole fragment from conn through
// the engine's bounded per-server queue.
func (l *Log) engineFetch(conn transport.ServerConn, fid wire.FID) (Header, []byte, error) {
	decoded, payload, err := l.engine.Fetch(conn, fid)
	if err != nil {
		return Header{}, nil, err
	}
	h := decoded.(Header)
	l.noteStripe(&h)
	return h, payload, nil
}

// discover finds fid by broadcast (deduplicated in the engine: concurrent
// discoveries of the same FID share one broadcast) and records the
// location for future reads.
func (l *Log) discover(fid wire.FID) (transport.ServerConn, error) {
	conn, shared, err := l.engine.Locate(fid)
	if err != nil {
		return nil, fmt.Errorf("%w: fragment %v not found on any server", ErrLost, fid)
	}
	l.mu.Lock()
	l.noteLocationLocked(fid, conn.ID())
	if !shared {
		l.stats.BroadcastFallback++
	}
	l.mu.Unlock()
	return conn, nil
}

// reconstruct rebuilds fid from its stripe, deduplicated through the
// engine's singleflight: N concurrent readers of the same lost fragment
// pay for exactly one stripe fan-out and share its result. The result is
// cached before the flight lands, so later readers hit the fragment
// cache without a flight at all.
func (l *Log) reconstruct(fid wire.FID) (Header, []byte, error) {
	v, _, err := l.engine.Single(fid, func() (any, error) {
		h, payload, rerr := l.reconstructFragment(fid)
		if rerr != nil {
			return nil, rerr
		}
		f := cachedFrag{header: h, payload: payload}
		l.recon.put(fid, f)
		return f, nil
	})
	if err != nil {
		return Header{}, nil, err
	}
	f := v.(cachedFrag)
	return f.header, f.payload, nil
}

// reconstructFragment rebuilds a whole missing fragment from surviving
// members of its stripe — the path of the cleaner, rebuild, recovery,
// FetchFragment, readahead and a degraded read that buys (readLost).
// Clients reconstruct the fragments they need; servers never
// participate and never learn a reconstruction happened (§2.3.3). The
// stripe's geometry, codec and group come from one of its headers
// (stripeGeometry), so every stripe decodes with the code that wrote it
// regardless of this client's configuration. The member is decoded over
// its own length, and its header is rebuilt as it was stored: a parity
// member's and the stripe's last data member's carry MemberLens. A
// missing member that is itself empty needs no decode at all.
func (l *Log) reconstructFragment(fid wire.FID) (Header, []byte, error) {
	g, err := l.stripeGeometry(fid)
	if err != nil {
		return Header{}, nil, err
	}
	missIdx := int(fid.Seq() - g.BaseSeq())
	h := Header{
		Kind: FragData, Width: g.Width, Index: uint8(missIdx),
		FID: fid, StripeID: g.StripeID, DataLen: g.MemberLen(missIdx),
		Group: g.Group, Codec: g.Codec, NumParity: g.NumParity, Epoch: g.Epoch,
	}
	if _, parity := g.ParityOrdinal(missIdx); parity {
		h.Kind, h.MemberLens = FragParity, g.MemberLens
	} else if missIdx == g.LastData() {
		h.MemberLens = g.MemberLens
	}
	if h.DataLen == 0 {
		return h, nil, nil
	}
	payload, err := l.decode(g, missIdx, 0, h.DataLen)
	if err != nil {
		return Header{}, nil, err
	}
	h.PayloadCRC = crc32.ChecksumIEEE(payload)
	return h, payload, nil
}

// stripeGeometry returns a header of fid's stripe that carries its
// MemberLens: the geometry in the stripe's record if it holds one, else a
// sibling's header (findSibling) if it carries them, else a parity
// member's header, else the last data member's, sought from the highest
// data index down. One of those m+1 copies survives in every stripe
// that can be decoded: a lost data member needs a surviving parity
// member, and a lost parity member with all parity gone needs every
// stored data member, the last one included. The header found becomes
// the stripe's geometry, so only a stripe's first reconstruction pays
// for the search.
func (l *Log) stripeGeometry(fid wire.FID) (*Header, error) {
	if fid.Client() == l.client {
		var g Header
		l.mu.Lock()
		if s := l.stripes[l.stripeOf(fid.Seq())]; s != nil {
			g = s.geom
		}
		l.mu.Unlock()
		if g.HasMemberLens() {
			return &g, nil
		}
	}
	sib, err := l.findSibling(fid)
	if err != nil {
		return nil, err
	}
	// Parity slots first, then the data slots from the highest index
	// down. The lost member and members known empty are not looked for.
	w := int(sib.Width)
	slots := make([]int, 0, w)
	for j := 0; j < int(sib.NumParity); j++ {
		slots = append(slots, int((sib.StripeID+uint64(j))%uint64(w)))
	}
	for i := w - 1; i >= 0; i-- {
		if _, parity := sib.ParityOrdinal(i); !parity {
			slots = append(slots, i)
		}
	}
	for _, idx := range slots {
		if sib.HasMemberLens() {
			break
		}
		mfid := sib.MemberFID(idx)
		if mfid == fid || idx == int(sib.Index) || l.isEmpty(mfid) {
			continue
		}
		if h, err := l.fetchHeader(mfid, sib.Group[idx]); err == nil && h.StripeID == sib.StripeID && h.HasMemberLens() {
			sib = h
		}
	}
	if !sib.HasMemberLens() {
		return nil, fmt.Errorf("%w: no header of stripe %d names its member lengths", ErrLost, sib.StripeID)
	}
	l.noteStripe(sib)
	return sib, nil
}

// findSibling locates any other fragment of fid's stripe and returns its
// header. Per the paper: "If fragment N needs to be reconstructed, then
// either fragment N-1 or fragment N+1 is in the same stripe. A client
// finds fragment N-1 and N+1 by broadcasting to all storage servers."
// Members known to be empty are skipped: they were never stored, so
// looking for one would cost a broadcast that cannot succeed. When every
// candidate's broadcast was answered by every server and found nothing,
// the stripe is not found (ErrNotFound) rather than lost.
func (l *Log) findSibling(fid wire.FID) (*Header, error) {
	seq := fid.Seq()
	absent := true
	for delta := uint64(1); delta < MaxWidth; delta++ {
		for _, cand := range []int64{int64(seq) - int64(delta), int64(seq) + int64(delta)} {
			if cand < 0 {
				continue
			}
			cfid := wire.MakeFID(fid.Client(), uint64(cand))
			if l.isEmpty(cfid) {
				continue
			}
			h, err := l.fetchHeader(cfid, 0)
			if err != nil {
				absent = absent && errors.Is(err, fragio.ErrNotFound)
				continue
			}
			base := h.BaseSeq()
			if seq >= base && seq < base+uint64(h.Width) {
				return h, nil
			}
		}
	}
	if absent {
		return nil, fmt.Errorf("%w: no server holds %v or any member of its stripe", ErrNotFound, fid)
	}
	return nil, fmt.Errorf("%w: no stripe sibling found for %v", ErrLost, fid)
}

// fetchHeader reads and decodes fid's header from its recorded
// location, else from server hint (0: none), else from a server found
// by broadcast.
func (l *Log) fetchHeader(fid wire.FID, hint wire.ServerID) (*Header, error) {
	conn := l.lookupConn(fid)
	if conn == nil {
		conn = l.place.Conn(hint)
	}
	if conn == nil {
		found, _, err := l.engine.Locate(fid)
		if err != nil {
			return nil, err
		}
		conn = found
	}
	hdrBytes, err := l.engine.ReadAt(conn, fid, 0, HeaderSize)
	if err != nil {
		// The recorded location may be a down server; try broadcast once
		// (concurrent discoveries of the same FID share one broadcast).
		found, _, berr := l.engine.Locate(fid)
		if berr != nil {
			return nil, err
		}
		hdrBytes, err = l.engine.ReadAt(found, fid, 0, HeaderSize)
		if err != nil {
			return nil, err
		}
	}
	h, err := DecodeHeader(hdrBytes)
	wire.PutBuffer(hdrBytes) // DecodeHeader copies into h
	if err != nil {
		return nil, err
	}
	return &h, nil
}
