package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"swarm/internal/erasure"
	"swarm/internal/wire"
)

// Format errors.
var (
	// ErrBadFragment is returned when a fragment fails validation.
	ErrBadFragment = errors.New("core: bad fragment")
	// ErrBlockTooLarge is returned when a block cannot fit in a fragment.
	ErrBlockTooLarge = errors.New("core: block too large for fragment")
)

// Fragment geometry. Every fragment starts with a fixed-size
// self-describing header; the rest is the payload region holding log
// entries (data fragments) or the XOR of the stripe's data payloads
// (parity fragments). Storing the stripe group in every fragment is what
// lets a client reconstruct fragments with no global metadata service
// (§2.3.3): find any sibling by broadcast, read its header, and the whole
// stripe is known.
const (
	// HeaderSize is the fragment header length in bytes.
	HeaderSize = 192
	// MaxWidth is the maximum stripe width (fragments per stripe,
	// including parity).
	MaxWidth = 16
	// EntryHdrSize is the per-entry header: kind(1) svc(2) len(4).
	EntryHdrSize = 7

	fragMagic = 0x4752464c // "LFRG"
	// fragVersion is the one header layout: after the stripe fields it
	// stores the erasure codec byte (160), the parity count (161) and
	// the placement epoch (162-165) in every header.
	fragVersion = 2

	// FragData marks a fragment holding log entries.
	FragData = 1
	// FragParity marks a fragment holding stripe parity.
	FragParity = 2
)

// Header is the decoded fragment header.
type Header struct {
	Kind     uint8 // FragData or FragParity
	Width    uint8 // members in this stripe, including parity
	Index    uint8 // this fragment's position within the stripe
	FID      wire.FID
	StripeID uint64
	DataLen  uint32 // valid payload bytes
	Group    [MaxWidth]wire.ServerID
	// MemberLens holds each member's DataLen. Populated in the m parity
	// fragments and in the stripe's last data member, so any m lost
	// members leave a copy: reconstruction rebuilds a missing member's
	// header exactly from it, and a data slot recorded as 0 is a member
	// the stripe closed without filling — never stored, read as all
	// zeros. Other data fragments leave it zero.
	MemberLens [MaxWidth]uint32
	// PayloadCRC is the CRC-32 of the payload (DataLen bytes). Readers
	// verify it on whole-fragment fetches; a mismatch is treated as a
	// missing fragment, so a corrupted replica heals from the stripe's
	// parity like any other failure.
	PayloadCRC uint32
	// Codec is the erasure code that wrote this stripe (an erasure.Kind
	// value). Readers decode each stripe with the code named in its
	// headers, never their own configuration, so logs may freely mix
	// XOR and RS stripes. Zero is normalized to XOR on decode.
	Codec uint8
	// NumParity is the stripe's parity-shard count m. The parity slots
	// of stripe s are (s+j) mod Width for j in [0, m); slot j=0 is the
	// classic rotating position, so m=1 is the paper's layout. A
	// parity-free log stores 0, which decodes as XOR m=1 like a zero
	// Codec.
	NumParity uint8
	// Epoch is the placement-map epoch the stripe was written under
	// (see internal/placement). In-session readers and the rebalancer
	// resolve the stripe's servers through the view this epoch names;
	// a fresh session treats foreign epochs as unknown and falls back
	// to recorded locations, the Group field, or broadcast discovery.
	// Epoch 0 is the construction-time server list.
	Epoch uint32
}

// BaseSeq returns the sequence number of the stripe's first fragment.
// Fragments of one stripe are numbered consecutively (§2.3.3), so the
// stripe's FIDs are BaseSeq … BaseSeq+Width-1.
func (h *Header) BaseSeq() uint64 { return h.FID.Seq() - uint64(h.Index) }

// MemberFID returns the FID of stripe member i.
func (h *Header) MemberFID(i int) wire.FID {
	return wire.MakeFID(h.FID.Client(), h.BaseSeq()+uint64(i))
}

// DataShards returns k, the stripe's data-member count.
func (h *Header) DataShards() int { return int(h.Width) - int(h.NumParity) }

// ParityOrdinal returns (j, true) if member index i is the stripe's
// j-th parity slot. Parity occupies indices (StripeID+j) mod Width for
// j in [0, NumParity); j=0 is the classic rotating parity position, so
// the m=1 layout is exactly the original format.
func (h *Header) ParityOrdinal(i int) (int, bool) {
	w := int(h.Width)
	d := (i - int(h.StripeID%uint64(w)) + w) % w
	if d < int(h.NumParity) {
		return d, true
	}
	return 0, false
}

// ShardOrdinal maps stripe member index i to its erasure-shard ordinal:
// data members count 0..k-1 in index order skipping parity slots, and
// parity slot j maps to k+j. This is the ordering erasure.Code expects.
func (h *Header) ShardOrdinal(i int) int {
	if j, ok := h.ParityOrdinal(i); ok {
		return h.DataShards() + j
	}
	n := 0
	for x := 0; x < i; x++ {
		if _, ok := h.ParityOrdinal(x); !ok {
			n++
		}
	}
	return n
}

// HasMemberLens reports whether h carries its stripe's MemberLens: every
// parity header does, and so does the last data member's. A closed
// stripe holds at least one nonempty data member, so a populated array
// is never all zero.
func (h *Header) HasMemberLens() bool {
	return h.Kind == FragParity || h.MemberLens != [MaxWidth]uint32{}
}

// EmptyMembers returns the data slots h records as length 0, one bit per
// member index, or ok=false when h does not carry the stripe's lengths.
// An empty member was never stored; readers treat it as present and all
// zeros.
func (h *Header) EmptyMembers() (mask uint16, ok bool) {
	if !h.HasMemberLens() {
		return 0, false
	}
	for i := 0; i < int(h.Width); i++ {
		if _, parity := h.ParityOrdinal(i); !parity && h.MemberLens[i] == 0 {
			mask |= 1 << i
		}
	}
	return mask, true
}

// ErasureCode returns the stripe's codec as named by the header.
func (h *Header) ErasureCode() (erasure.Code, error) {
	return erasure.New(erasure.Kind(h.Codec), h.DataShards(), int(h.NumParity))
}

// EncodeHeader serializes h into a HeaderSize buffer.
func EncodeHeader(h *Header) []byte {
	buf := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], fragMagic)
	buf[4] = fragVersion
	buf[5] = h.Kind
	buf[6] = h.Width
	buf[7] = h.Index
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.FID))
	binary.LittleEndian.PutUint64(buf[16:], h.StripeID)
	binary.LittleEndian.PutUint32(buf[24:], h.DataLen)
	for i := 0; i < MaxWidth; i++ {
		binary.LittleEndian.PutUint32(buf[28+i*4:], uint32(h.Group[i]))
		binary.LittleEndian.PutUint32(buf[92+i*4:], h.MemberLens[i])
	}
	binary.LittleEndian.PutUint32(buf[156:], h.PayloadCRC)
	buf[160] = h.Codec
	buf[161] = h.NumParity
	binary.LittleEndian.PutUint32(buf[162:], h.Epoch)
	binary.LittleEndian.PutUint32(buf[HeaderSize-4:], crc32.ChecksumIEEE(buf[:HeaderSize-4]))
	return buf
}

// DecodeHeader parses and validates a fragment header.
func DecodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, fmt.Errorf("%w: header truncated (%d bytes)", ErrBadFragment, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != fragMagic {
		return h, fmt.Errorf("%w: bad magic", ErrBadFragment)
	}
	if buf[4] != fragVersion {
		return h, fmt.Errorf("%w: version %d", ErrBadFragment, buf[4])
	}
	if crc32.ChecksumIEEE(buf[:HeaderSize-4]) != binary.LittleEndian.Uint32(buf[HeaderSize-4:]) {
		return h, fmt.Errorf("%w: header checksum", ErrBadFragment)
	}
	h.Kind = buf[5]
	h.Width = buf[6]
	h.Index = buf[7]
	if h.Kind != FragData && h.Kind != FragParity {
		return h, fmt.Errorf("%w: kind %d", ErrBadFragment, h.Kind)
	}
	if h.Width == 0 || h.Width > MaxWidth || h.Index >= h.Width {
		return h, fmt.Errorf("%w: width %d index %d", ErrBadFragment, h.Width, h.Index)
	}
	h.Codec = buf[160]
	h.NumParity = buf[161]
	h.Epoch = binary.LittleEndian.Uint32(buf[162:])
	if h.Codec == 0 {
		h.Codec = uint8(erasure.KindXOR)
	}
	switch {
	case h.Codec == uint8(erasure.KindXOR) && h.NumParity <= 1:
		// The paper's single rotating XOR parity. A parity-free log
		// leaves the geometry bytes zero and reads the same way.
		h.NumParity = 1
	case h.NumParity == 0 || h.NumParity >= h.Width:
		return h, fmt.Errorf("%w: %d parity shards in width %d", ErrBadFragment, h.NumParity, h.Width)
	}
	h.FID = wire.FID(binary.LittleEndian.Uint64(buf[8:]))
	h.StripeID = binary.LittleEndian.Uint64(buf[16:])
	h.DataLen = binary.LittleEndian.Uint32(buf[24:])
	for i := 0; i < MaxWidth; i++ {
		h.Group[i] = wire.ServerID(binary.LittleEndian.Uint32(buf[28+i*4:]))
		h.MemberLens[i] = binary.LittleEndian.Uint32(buf[92+i*4:])
	}
	h.PayloadCRC = binary.LittleEndian.Uint32(buf[156:])
	return h, nil
}

// Entry is one decoded log entry.
type Entry struct {
	Kind    EntryKind
	Svc     ServiceID
	Off     uint32 // offset of the entry within the fragment payload
	Payload []byte // aliases the payload buffer
}

// AppendEntry serializes an entry header+payload into buf at off and
// returns the new offset. Callers must have checked capacity.
func AppendEntry(buf []byte, off int, kind EntryKind, svc ServiceID, payload []byte) int {
	buf[off] = uint8(kind)
	binary.LittleEndian.PutUint16(buf[off+1:], uint16(svc))
	binary.LittleEndian.PutUint32(buf[off+3:], uint32(len(payload)))
	copy(buf[off+EntryHdrSize:], payload)
	return off + EntryHdrSize + len(payload)
}

// EntrySize returns the encoded size of an entry with the given payload
// length.
func EntrySize(payloadLen int) int { return EntryHdrSize + payloadLen }

// IterEntries walks the entries of a data-fragment payload (payload must
// be exactly DataLen bytes), calling fn for each. Iteration stops early if
// fn returns false. Malformed entries terminate iteration with an error.
func IterEntries(payload []byte, fn func(Entry) bool) error {
	off := 0
	for off < len(payload) {
		if off+EntryHdrSize > len(payload) {
			return fmt.Errorf("%w: truncated entry header at %d", ErrBadFragment, off)
		}
		kind := EntryKind(payload[off])
		svc := ServiceID(binary.LittleEndian.Uint16(payload[off+1:]))
		n := binary.LittleEndian.Uint32(payload[off+3:])
		if off+EntryHdrSize+int(n) > len(payload) {
			return fmt.Errorf("%w: truncated entry payload at %d", ErrBadFragment, off)
		}
		e := Entry{
			Kind:    kind,
			Svc:     svc,
			Off:     uint32(off),
			Payload: payload[off+EntryHdrSize : off+EntryHdrSize+int(n)],
		}
		if kind < EntryBlock || kind > EntryRecord {
			return fmt.Errorf("%w: unknown entry kind %d at %d", ErrBadFragment, kind, off)
		}
		if !fn(e) {
			return nil
		}
		off += EntryHdrSize + int(n)
	}
	return nil
}

// ---------------------------------------------------------- record bodies

// CreateRecord is the payload of an EntryCreate record, automatically
// written by the log layer when a block is appended. The Hint is supplied
// by the owning service and handed back when the cleaner moves the block,
// so the service can find and update its metadata (§2.1.4: "the creation
// record for a file block might contain the inode number of the block's
// file, and its position within the file").
type CreateRecord struct {
	Addr BlockAddr
	Len  uint32
	Hint []byte
}

// EncodeCreateRecord serializes r.
func EncodeCreateRecord(r *CreateRecord) []byte {
	e := wire.NewEncoder(20 + len(r.Hint))
	e.U64(uint64(r.Addr.FID))
	e.U32(r.Addr.Off)
	e.U32(r.Len)
	e.Bytes32(r.Hint)
	return e.Bytes()
}

// DecodeCreateRecord parses a create record payload.
func DecodeCreateRecord(p []byte) (CreateRecord, error) {
	d := wire.NewDecoder(p)
	r := CreateRecord{
		Addr: BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()},
		Len:  d.U32(),
		Hint: d.Bytes32(),
	}
	if err := d.Err(); err != nil {
		return CreateRecord{}, fmt.Errorf("%w: create record: %v", ErrBadFragment, err)
	}
	return r, nil
}

// DeleteRecord is the payload of an EntryDelete record.
type DeleteRecord struct {
	Addr BlockAddr
	Len  uint32
}

// EncodeDeleteRecord serializes r.
func EncodeDeleteRecord(r *DeleteRecord) []byte {
	e := wire.NewEncoder(16)
	e.U64(uint64(r.Addr.FID))
	e.U32(r.Addr.Off)
	e.U32(r.Len)
	return e.Bytes()
}

// DecodeDeleteRecord parses a delete record payload.
func DecodeDeleteRecord(p []byte) (DeleteRecord, error) {
	d := wire.NewDecoder(p)
	r := DeleteRecord{
		Addr: BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()},
		Len:  d.U32(),
	}
	if err := d.Err(); err != nil {
		return DeleteRecord{}, fmt.Errorf("%w: delete record: %v", ErrBadFragment, err)
	}
	return r, nil
}

// CheckpointRecord is the payload of an EntryCheckpoint record. Besides
// the service's own checkpoint payload it carries the log layer's
// checkpoint directory — the address of the newest checkpoint of *every*
// service at the time of writing. Recovery reads the newest checkpoint
// (found via marked fragments) and the directory leads it to every other
// service's consistent state, implementing "the log layer tracks the most
// recently written checkpoint for each service and makes it available to
// the service on restart" (§2.1.3).
type CheckpointRecord struct {
	Directory map[ServiceID]BlockAddr
	Payload   []byte
	// Usage is the log layer's serialized stripe-usage table at the time
	// of the checkpoint (see UsageTable): recovery restores it and rolls
	// it forward, giving the cleaner its state without a full log scan.
	Usage []byte
}

// EncodeCheckpointRecord serializes r with a deterministic directory
// order.
func EncodeCheckpointRecord(r *CheckpointRecord) []byte {
	e := wire.NewEncoder(32 + len(r.Payload) + len(r.Directory)*14)
	e.U16(uint16(len(r.Directory)))
	// Deterministic order: ascending service ID.
	ids := make([]ServiceID, 0, len(r.Directory))
	for id := range r.Directory {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		a := r.Directory[id]
		e.U16(uint16(id))
		e.U64(uint64(a.FID))
		e.U32(a.Off)
	}
	e.Bytes32(r.Payload)
	e.Bytes32(r.Usage)
	return e.Bytes()
}

// DecodeCheckpointRecord parses a checkpoint record payload.
func DecodeCheckpointRecord(p []byte) (CheckpointRecord, error) {
	d := wire.NewDecoder(p)
	n := d.U16()
	r := CheckpointRecord{Directory: make(map[ServiceID]BlockAddr, n)}
	for i := uint16(0); i < n && d.Err() == nil; i++ {
		id := ServiceID(d.U16())
		r.Directory[id] = BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()}
	}
	r.Payload = d.Bytes32()
	r.Usage = d.Bytes32()
	if err := d.Err(); err != nil {
		return CheckpointRecord{}, fmt.Errorf("%w: checkpoint record: %v", ErrBadFragment, err)
	}
	return r, nil
}
