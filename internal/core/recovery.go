package core

import (
	"errors"
	"fmt"
	"sort"

	"swarm/internal/fragio"
	"swarm/internal/wire"
)

// ReplayEntry is one record delivered to a service during log rollforward.
type ReplayEntry struct {
	Kind    EntryKind // EntryCreate, EntryDelete, or EntryRecord
	Svc     ServiceID
	Pos     BlockAddr // the record entry's own log position
	Payload []byte    // record payload (owned copy)
}

// RecoveredService is what recovery hands each service: its newest
// checkpoint (if any) and the records it wrote after that checkpoint, in
// log order. "By replaying these records and applying the changes they
// represent to the checkpoint's state, the service can reconstruct its
// state at the time of the crash" (§2.1.3).
type RecoveredService struct {
	Checkpoint     []byte
	CheckpointAddr BlockAddr
	HasCheckpoint  bool
	Records        []ReplayEntry
}

// Recovery is the result of opening an existing log.
type Recovery struct {
	// Fresh reports a brand-new log (nothing stored anywhere).
	Fresh bool
	// Services maps each service to its recovered state. Services that
	// never wrote anything are absent.
	Services map[ServiceID]*RecoveredService
	// MaxSeq is the highest fragment sequence number found.
	MaxSeq uint64
	// Holes lists fragments that were expected during the scan but could
	// be neither read nor reconstructed; records in them are lost.
	Holes []wire.FID
}

// Service returns the recovered state for svc, never nil.
func (r *Recovery) Service(svc ServiceID) *RecoveredService {
	if s, ok := r.Services[svc]; ok {
		return s
	}
	return &RecoveredService{}
}

// recover rebuilds the log's client-side state from the servers:
//  1. enumerate this client's fragments everywhere (self-hosting: the
//     servers are the only directory);
//  2. find the newest checkpoint via the marked-fragment query;
//  3. restore the checkpoint directory and usage table;
//  4. roll the log forward from the oldest needed checkpoint, collecting
//     each service's replayable records.
//
// recover runs inside Open, before the log is visible to any other
// goroutine, so it touches mu-guarded state without the lock.
// swarmlint:locked
func (l *Log) recover() (*Recovery, error) {
	rec := &Recovery{Services: make(map[ServiceID]*RecoveredService)}

	// 1. Enumerate fragments.
	var reachable int
	fidSet := make(map[uint64]bool)
	for _, sc := range l.place.Conns() {
		fids, err := sc.List(l.client)
		if err != nil {
			continue
		}
		reachable++
		for _, fid := range fids {
			fidSet[fid.Seq()] = true
			l.noteLocationLocked(fid, sc.ID())
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("%w: no server reachable", ErrLost)
	}
	if len(fidSet) == 0 {
		rec.Fresh = true
		return rec, nil
	}
	var maxSeq uint64
	for seq := range fidSet {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	rec.MaxSeq = maxSeq
	// New appends start on a fresh stripe past everything seen.
	l.seq = (l.stripeOf(maxSeq) + 1) * uint64(l.width)

	// 2. Newest checkpoint.
	var (
		lastMarked wire.FID
		haveMarked bool
	)
	for _, sc := range l.place.Conns() {
		fid, found, err := sc.LastMarked(l.client)
		if err != nil || !found {
			continue
		}
		if !haveMarked || fid.Seq() > lastMarked.Seq() {
			lastMarked, haveMarked = fid, true
		}
	}

	replayFrom := Pos{}
	usageFrom := Pos{}
	if haveMarked {
		ckpt, ckptAddr, err := l.loadNewestCheckpoint(lastMarked)
		if err != nil {
			return nil, err
		}
		usageFrom = PosOf(ckptAddr)
		if u, uerr := DecodeUsageTable(ckpt.Usage); uerr == nil {
			l.usage = u
		}
		l.ckpts = ckpt.Directory
		replayFrom = Pos{Seq: ^uint64(0)}
		for svc, addr := range ckpt.Directory {
			l.registered[svc] = true
			payload, perr := l.readCheckpointPayload(addr)
			if perr != nil {
				return nil, fmt.Errorf("read checkpoint for service %d: %w", svc, perr)
			}
			rec.Services[svc] = &RecoveredService{
				Checkpoint:     payload,
				CheckpointAddr: addr,
				HasCheckpoint:  true,
			}
			if p := PosOf(addr); p.Less(replayFrom) {
				replayFrom = p
			}
		}
		if len(ckpt.Directory) == 0 {
			replayFrom = Pos{}
		}
	}

	// 3+4. Roll forward.
	if err := l.rollForward(rec, fidSet, replayFrom, usageFrom, l.scanEnd(fidSet, maxSeq)); err != nil {
		return nil, err
	}
	return rec, nil
}

// scanEnd returns the last sequence number recovery must scan. A
// surviving parity member proves the newest stripe was closed, so each
// of its members up to the stripe's end was stored, is empty, or can be
// reconstructed — including a lost last data member numbered past every
// surviving fragment. Without one the stripe was still open, and its
// slots past maxSeq were never written.
func (l *Log) scanEnd(fidSet map[uint64]bool, maxSeq uint64) uint64 {
	stripe := l.stripeOf(maxSeq)
	for j := 0; j < l.nparity; j++ {
		if fidSet[stripe*uint64(l.width)+uint64(l.paritySlot(stripe, j))] {
			return (stripe+1)*uint64(l.width) - 1
		}
	}
	return maxSeq
}

// loadNewestCheckpoint reads the marked fragment and returns its last
// checkpoint record (the newest in the log, since every checkpoint marks
// its fragment and lastMarked has the highest sequence number).
func (l *Log) loadNewestCheckpoint(fid wire.FID) (CheckpointRecord, BlockAddr, error) {
	_, payload, err := l.FetchFragment(fid)
	if err != nil {
		return CheckpointRecord{}, BlockAddr{}, fmt.Errorf("fetch checkpoint fragment %v: %w", fid, err)
	}
	var (
		found   bool
		lastOff uint32
		lastRec []byte
	)
	err = IterEntries(payload, func(e Entry) bool {
		if e.Kind == EntryCheckpoint {
			found = true
			lastOff = e.Off
			lastRec = e.Payload
		}
		return true
	})
	if err != nil {
		return CheckpointRecord{}, BlockAddr{}, err
	}
	if !found {
		return CheckpointRecord{}, BlockAddr{}, fmt.Errorf("%w: marked fragment %v holds no checkpoint", ErrBadFragment, fid)
	}
	ckpt, err := DecodeCheckpointRecord(lastRec)
	if err != nil {
		return CheckpointRecord{}, BlockAddr{}, err
	}
	return ckpt, BlockAddr{FID: fid, Off: lastOff}, nil
}

// readCheckpointPayload fetches the service payload of the checkpoint
// record at addr.
func (l *Log) readCheckpointPayload(addr BlockAddr) ([]byte, error) {
	_, payload, err := l.FetchFragment(addr.FID)
	if err != nil {
		return nil, err
	}
	var out []byte
	found := false
	err = IterEntries(payload, func(e Entry) bool {
		if e.Off == addr.Off && e.Kind == EntryCheckpoint {
			if ckpt, derr := DecodeCheckpointRecord(e.Payload); derr == nil {
				out = append([]byte(nil), ckpt.Payload...)
				found = true
			}
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: no checkpoint entry at %v", ErrBadFragment, addr)
	}
	return out, nil
}

// rollForward scans data fragments from replayFrom to maxSeq, delivering
// each record to its service (if newer than that service's checkpoint)
// and rolling the usage table forward from usageFrom. Fragments are
// fetched a stripe at a time through the fragment I/O engine — one
// parallel fan-out per stripe — while records are still delivered
// strictly in log order.
func (l *Log) rollForward(rec *Recovery, fidSet map[uint64]bool, replayFrom, usageFrom Pos, maxSeq uint64) error {
	var (
		fetched     map[uint64]fetchedFrag
		fetchedBase = ^uint64(0)
	)
	for seq := replayFrom.Seq; seq <= maxSeq; seq++ {
		fid := wire.MakeFID(l.client, seq)
		if !fidSet[seq] && !l.stripeHasSurvivors(fidSet, seq) {
			continue // stripe reclaimed or never written
		}
		// Entering a new stripe: gather every member of it that this scan
		// will visit in one concurrent fan-out.
		if stripe := l.stripeOf(seq); stripe != fetchedBase {
			fetchedBase = stripe
			var need []uint64
			for s := seq; s <= maxSeq && l.stripeOf(s) == stripe; s++ {
				if fidSet[s] || l.stripeHasSurvivors(fidSet, s) {
					need = append(need, s)
				}
			}
			fetched = l.fetchSeqs(need, l.FetchFragment)
		}
		f, ok := fetched[seq]
		if !ok {
			continue
		}
		h, payload, err := f.header, f.payload, f.err
		if err != nil {
			rec.Holes = append(rec.Holes, fid)
			continue
		}
		if h.Kind == FragParity {
			continue
		}
		if seq >= usageFrom.Seq {
			l.usage.FragmentSealed(h.StripeID, !l.parity)
		}
		iterErr := IterEntries(payload, func(e Entry) bool {
			pos := Pos{Seq: seq, Off: e.Off}
			// Usage roll-forward: the snapshot in the newest checkpoint
			// covers everything strictly before the checkpoint entry.
			if !pos.Less(usageFrom) {
				switch e.Kind {
				case EntryBlock:
					l.usage.AddBlock(h.StripeID, EntrySize(len(e.Payload)))
				case EntryDelete:
					l.usage.AddRecord(h.StripeID, EntrySize(len(e.Payload)))
					if dr, derr := DecodeDeleteRecord(e.Payload); derr == nil {
						l.usage.DeleteBlock(l.stripeOf(dr.Addr.FID.Seq()), EntrySize(int(dr.Len)))
					}
				case EntryCreate, EntryRecord, EntryCheckpoint:
					l.usage.AddRecord(h.StripeID, EntrySize(len(e.Payload)))
				}
			}
			// Record delivery.
			switch e.Kind {
			case EntryCreate, EntryDelete, EntryRecord:
				svcRec, ok := rec.Services[e.Svc]
				if !ok {
					svcRec = &RecoveredService{}
					rec.Services[e.Svc] = svcRec
				}
				if svcRec.HasCheckpoint && !PosOf(svcRec.CheckpointAddr).Less(pos) {
					return true // older than this service's checkpoint
				}
				svcRec.Records = append(svcRec.Records, ReplayEntry{
					Kind:    e.Kind,
					Svc:     e.Svc,
					Pos:     BlockAddr{FID: fid, Off: e.Off},
					Payload: append([]byte(nil), e.Payload...),
				})
			}
			return true
		})
		if iterErr != nil {
			// A fragment with a corrupt tail: keep what parsed, note it.
			rec.Holes = append(rec.Holes, fid)
		}
	}
	// Parity fragments seen during the scan close their stripes.
	l.markClosedStripes(fidSet, maxSeq)
	sortHoles(rec.Holes)
	return nil
}

// stripeHasSurvivors reports whether any fragment of seq's stripe exists,
// which makes a missing member worth a reconstruction attempt.
func (l *Log) stripeHasSurvivors(fidSet map[uint64]bool, seq uint64) bool {
	base := l.stripeOf(seq) * uint64(l.width)
	for i := uint64(0); i < uint64(l.width); i++ {
		if base+i != seq && fidSet[base+i] {
			return true
		}
	}
	return false
}

// markClosedStripes marks stripes whose parity fragment exists as closed
// in the usage table (the cleaner only touches closed stripes).
func (l *Log) markClosedStripes(fidSet map[uint64]bool, maxSeq uint64) {
	if !l.parity {
		return
	}
	for stripe := uint64(0); stripe <= l.stripeOf(maxSeq); stripe++ {
		pSeq := stripe*uint64(l.width) + uint64(l.parityIndex(stripe))
		if fidSet[pSeq] {
			l.usage.FragmentSealed(stripe, true)
		}
	}
}

func sortHoles(holes []wire.FID) {
	sort.Slice(holes, func(i, j int) bool { return holes[i] < holes[j] })
}

// VerifyStripe checks that every member of a stripe is readable and
// every parity payload actually equals what the stripe's codec computes
// over the data payloads. It is a consistency check used by tests and
// the swarmctl tool. The geometry (codec, parity count, slots) comes
// from a stored parity header, not this client's configuration, so
// mixed XOR/RS logs verify stripe by stripe. The members are fetched
// concurrently through the engine; a member known to be empty counts as
// zero bytes without a fetch, and reconstruction is deliberately not
// attempted — verification wants the stored bytes.
func (l *Log) VerifyStripe(stripe uint64) error {
	base := stripe * uint64(l.width)
	if !l.parity {
		return errors.New("core: parity disabled")
	}
	seqs := make([]uint64, l.width)
	for i := range seqs {
		seqs[i] = base + uint64(i)
	}
	frags := l.fetchSeqs(seqs, func(fid wire.FID) (Header, []byte, error) {
		l.mu.Lock()
		if l.isEmptyLocked(fid) {
			h := l.memberHeaderLocked(fid, nil)
			l.mu.Unlock()
			return h, nil, nil
		}
		m := fragio.Member{FID: fid, Server: l.serverOfLocked(fid)}
		l.mu.Unlock()
		r := l.engine.FetchMember(m)
		if r.Err != nil {
			return Header{}, nil, r.Err
		}
		h := r.Decoded.(Header)
		l.noteStripe(&h)
		return h, r.Payload, nil
	})
	// Payloads are re-encoded/compared and die here; recycle them.
	defer func() {
		for _, f := range frags {
			wire.PutBuffer(f.payload)
		}
	}()
	var geom *Header
	for i, seq := range seqs {
		f := frags[seq]
		if f.err != nil {
			return fmt.Errorf("stripe %d member %d: %w", stripe, i, f.err)
		}
		if geom == nil && f.header.Kind == FragParity {
			geom = &f.header
		}
	}
	if geom == nil {
		return fmt.Errorf("%w: stripe %d has no parity member", ErrBadFragment, stripe)
	}
	code, err := geom.ErasureCode()
	if err != nil {
		return fmt.Errorf("stripe %d: %w", stripe, err)
	}
	// Recompute every parity payload from the stored data payloads.
	acc := make([][]byte, code.ParityShards())
	for j := range acc {
		acc[j] = make([]byte, l.payloadSize)
	}
	parityOf := make(map[int][]byte, code.ParityShards()) // member index → stored parity
	for i, seq := range seqs {
		f := frags[seq]
		_, isParity := geom.ParityOrdinal(i)
		if isParity != (f.header.Kind == FragParity) {
			return fmt.Errorf("%w: stripe %d member %d kind %d does not match its slot", ErrBadFragment, stripe, i, f.header.Kind)
		}
		if isParity {
			parityOf[i] = f.payload
			continue
		}
		code.AddData(geom.ShardOrdinal(i), f.payload, acc)
	}
	for i, stored := range parityOf {
		j, _ := geom.ParityOrdinal(i)
		want := acc[j]
		for b := 0; b < l.payloadSize; b++ {
			var s byte
			if b < len(stored) {
				s = stored[b]
			}
			if want[b] != s {
				return fmt.Errorf("%w: stripe %d parity %d mismatch at byte %d", ErrBadFragment, stripe, j, b)
			}
		}
	}
	return nil
}
