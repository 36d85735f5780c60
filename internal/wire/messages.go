package wire

import (
	"errors"
	"fmt"
)

// ErrBadMessage is returned when a message body fails to decode.
var ErrBadMessage = errors.New("wire: bad message")

// Message is implemented by every request and response body.
type Message interface {
	// Encode appends the message body to e.
	Encode(e *Encoder)
	// Decode parses the message body from d.
	Decode(d *Decoder) error
}

// PayloadMessage is implemented by the messages that carry a bulk
// fragment payload (StoreRequest, ReadResponse). The frame writer sends
// the payload out-of-band — as a separate net.Buffers element after the
// encoded header — so a 1 MB fragment is never copied through the
// Encoder. The wire format is unchanged: EncodeHeader ends with the
// payload's length prefix, so header ++ payload is byte-identical to
// what Encode produces.
type PayloadMessage interface {
	Message
	// EncodeHeader appends every field except the payload bytes,
	// including the payload's uint32 length prefix.
	EncodeHeader(e *Encoder)
	// Payload returns the bulk payload written after the header. On the
	// decode side it aliases the frame body, so transports must not
	// recycle the body of a PayloadMessage response.
	Payload() []byte
}

// PayloadChecksummer is implemented by payload messages that can know
// their payload's CRC-32 (IEEE) without hashing it — a server read-cache
// extent checksums its bytes once and serves many responses from them.
// WriteResponse then derives the frame checksum by CRC combination
// instead of rehashing the payload. The frame bytes are identical either
// way, and the receiver still verifies every byte it reads.
type PayloadChecksummer interface {
	// PayloadCRC returns crc32.ChecksumIEEE(Payload()) and true, or false
	// when the value is not known cheaply and the writer should hash.
	PayloadCRC() (uint32, bool)
}

func finish(d *Decoder) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// ---------------------------------------------------------------- requests

// PingRequest checks liveness.
type PingRequest struct{}

// Encode implements Message.
func (*PingRequest) Encode(*Encoder) {}

// Decode implements Message.
func (*PingRequest) Decode(*Decoder) error { return nil }

// StoreRequest stores a complete fragment. The server treats Data as an
// opaque set of bytes; Mark flags the fragment so LastMarked can find it
// (clients store checkpoints in marked fragments). Ranges optionally
// assigns ACLs to byte ranges of the fragment.
//
// All storage-server operations are atomic (§2.3.1): after a crash the
// fragment either exists in full or not at all.
type StoreRequest struct {
	FID    FID
	Mark   bool
	Ranges []ACLRange
	Data   []byte
}

// Encode implements Message.
func (m *StoreRequest) Encode(e *Encoder) {
	m.EncodeHeader(e)
	e.Raw(m.Data)
}

// EncodeHeader implements PayloadMessage.
func (m *StoreRequest) EncodeHeader(e *Encoder) {
	e.U64(uint64(m.FID))
	e.Bool(m.Mark)
	e.U32(uint32(len(m.Ranges)))
	for _, r := range m.Ranges {
		e.U32(r.Off)
		e.U32(r.Len)
		e.U32(uint32(r.AID))
	}
	e.U32(uint32(len(m.Data)))
}

// Payload implements PayloadMessage.
func (m *StoreRequest) Payload() []byte { return m.Data }

// Decode implements Message.
func (m *StoreRequest) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	m.Mark = d.Bool()
	n := d.U32()
	if n > 1<<20 {
		return fmt.Errorf("%w: %d ACL ranges", ErrBadMessage, n)
	}
	m.Ranges = make([]ACLRange, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Ranges = append(m.Ranges, ACLRange{Off: d.U32(), Len: d.U32(), AID: AID(d.U32())})
	}
	m.Data = d.Bytes32()
	return finish(d)
}

// ReadRequest retrieves Len bytes at Off within fragment FID.
type ReadRequest struct {
	FID FID
	Off uint32
	Len uint32
}

// Encode implements Message.
func (m *ReadRequest) Encode(e *Encoder) {
	e.U64(uint64(m.FID))
	e.U32(m.Off)
	e.U32(m.Len)
}

// Decode implements Message.
func (m *ReadRequest) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	m.Off = d.U32()
	m.Len = d.U32()
	return finish(d)
}

// DeleteRequest removes a fragment, freeing its slot.
type DeleteRequest struct {
	FID FID
}

// Encode implements Message.
func (m *DeleteRequest) Encode(e *Encoder) { e.U64(uint64(m.FID)) }

// Decode implements Message.
func (m *DeleteRequest) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	return finish(d)
}

// PreallocRequest reserves a slot for a fragment that will be stored later,
// letting clients guarantee space before sealing a stripe.
type PreallocRequest struct {
	FID FID
}

// Encode implements Message.
func (m *PreallocRequest) Encode(e *Encoder) { e.U64(uint64(m.FID)) }

// Decode implements Message.
func (m *PreallocRequest) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	return finish(d)
}

// LastMarkedRequest asks for the newest marked fragment owned by Client.
type LastMarkedRequest struct {
	Client ClientID
}

// Encode implements Message.
func (m *LastMarkedRequest) Encode(e *Encoder) { e.U32(uint32(m.Client)) }

// Decode implements Message.
func (m *LastMarkedRequest) Decode(d *Decoder) error {
	m.Client = ClientID(d.U32())
	return finish(d)
}

// HasFragmentRequest asks whether the server stores FID; it is the
// broadcast probe used for self-hosting fragment discovery and
// reconstruction (§2.3.3).
type HasFragmentRequest struct {
	FID FID
}

// Encode implements Message.
func (m *HasFragmentRequest) Encode(e *Encoder) { e.U64(uint64(m.FID)) }

// Decode implements Message.
func (m *HasFragmentRequest) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	return finish(d)
}

// ListFIDsRequest asks for all FIDs stored for a client (Client == 0 lists
// every fragment). Used by recovery to find the end of the log and by the
// cleaner to enumerate stripes.
type ListFIDsRequest struct {
	Client ClientID
}

// Encode implements Message.
func (m *ListFIDsRequest) Encode(e *Encoder) { e.U32(uint32(m.Client)) }

// Decode implements Message.
func (m *ListFIDsRequest) Decode(d *Decoder) error {
	m.Client = ClientID(d.U32())
	return finish(d)
}

// ACLCreateRequest creates an access control list; the server assigns and
// returns the AID.
type ACLCreateRequest struct {
	Members []ClientID
}

// Encode implements Message.
func (m *ACLCreateRequest) Encode(e *Encoder) {
	e.U32(uint32(len(m.Members)))
	for _, c := range m.Members {
		e.U32(uint32(c))
	}
}

// Decode implements Message.
func (m *ACLCreateRequest) Decode(d *Decoder) error {
	n := d.U32()
	if n > 1<<20 {
		return fmt.Errorf("%w: %d ACL members", ErrBadMessage, n)
	}
	m.Members = make([]ClientID, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.Members = append(m.Members, ClientID(d.U32()))
	}
	return finish(d)
}

// ACLModifyRequest adds and removes members of an existing ACL. Changing
// membership is the only way to change access to already-stored data: "Once
// written, the data's AID cannot be changed; instead, access permissions
// can be changed by changing the members of the ACL" (§2.3.2).
type ACLModifyRequest struct {
	AID    AID
	Add    []ClientID
	Remove []ClientID
}

// Encode implements Message.
func (m *ACLModifyRequest) Encode(e *Encoder) {
	e.U32(uint32(m.AID))
	e.U32(uint32(len(m.Add)))
	for _, c := range m.Add {
		e.U32(uint32(c))
	}
	e.U32(uint32(len(m.Remove)))
	for _, c := range m.Remove {
		e.U32(uint32(c))
	}
}

// Decode implements Message.
func (m *ACLModifyRequest) Decode(d *Decoder) error {
	m.AID = AID(d.U32())
	na := d.U32()
	if na > 1<<20 {
		return fmt.Errorf("%w: %d ACL adds", ErrBadMessage, na)
	}
	m.Add = make([]ClientID, 0, na)
	for i := uint32(0); i < na && d.Err() == nil; i++ {
		m.Add = append(m.Add, ClientID(d.U32()))
	}
	nr := d.U32()
	if nr > 1<<20 {
		return fmt.Errorf("%w: %d ACL removes", ErrBadMessage, nr)
	}
	m.Remove = make([]ClientID, 0, nr)
	for i := uint32(0); i < nr && d.Err() == nil; i++ {
		m.Remove = append(m.Remove, ClientID(d.U32()))
	}
	return finish(d)
}

// ACLDeleteRequest removes an ACL.
type ACLDeleteRequest struct {
	AID AID
}

// Encode implements Message.
func (m *ACLDeleteRequest) Encode(e *Encoder) { e.U32(uint32(m.AID)) }

// Decode implements Message.
func (m *ACLDeleteRequest) Decode(d *Decoder) error {
	m.AID = AID(d.U32())
	return finish(d)
}

// StatRequest asks for server capacity information.
type StatRequest struct{}

// Encode implements Message.
func (*StatRequest) Encode(*Encoder) {}

// Decode implements Message.
func (*StatRequest) Decode(*Decoder) error { return nil }

// --------------------------------------------------------------- responses

// GenericResponse carries only a status; it answers store, delete,
// preallocate, ACL modify/delete, and ping.
type GenericResponse struct{}

// Encode implements Message.
func (*GenericResponse) Encode(*Encoder) {}

// Decode implements Message.
func (*GenericResponse) Decode(*Decoder) error { return nil }

// ReadResponse returns fragment data.
type ReadResponse struct {
	Data []byte
}

// Encode implements Message.
func (m *ReadResponse) Encode(e *Encoder) { e.Bytes32(m.Data) }

// EncodeHeader implements PayloadMessage.
func (m *ReadResponse) EncodeHeader(e *Encoder) { e.U32(uint32(len(m.Data))) }

// Payload implements PayloadMessage.
func (m *ReadResponse) Payload() []byte { return m.Data }

// Decode implements Message.
func (m *ReadResponse) Decode(d *Decoder) error {
	m.Data = d.Bytes32()
	return finish(d)
}

// LastMarkedResponse returns the newest marked fragment (Found reports
// whether any exists).
type LastMarkedResponse struct {
	FID   FID
	Found bool
}

// Encode implements Message.
func (m *LastMarkedResponse) Encode(e *Encoder) {
	e.U64(uint64(m.FID))
	e.Bool(m.Found)
}

// Decode implements Message.
func (m *LastMarkedResponse) Decode(d *Decoder) error {
	m.FID = FID(d.U64())
	m.Found = d.Bool()
	return finish(d)
}

// HasFragmentResponse reports fragment presence and size.
type HasFragmentResponse struct {
	Found bool
	Size  uint32
}

// Encode implements Message.
func (m *HasFragmentResponse) Encode(e *Encoder) {
	e.Bool(m.Found)
	e.U32(m.Size)
}

// Decode implements Message.
func (m *HasFragmentResponse) Decode(d *Decoder) error {
	m.Found = d.Bool()
	m.Size = d.U32()
	return finish(d)
}

// ListFIDsResponse enumerates stored fragments.
type ListFIDsResponse struct {
	FIDs []FID
}

// Encode implements Message.
func (m *ListFIDsResponse) Encode(e *Encoder) {
	e.U32(uint32(len(m.FIDs)))
	for _, f := range m.FIDs {
		e.U64(uint64(f))
	}
}

// Decode implements Message.
func (m *ListFIDsResponse) Decode(d *Decoder) error {
	n := d.U32()
	if n > 1<<24 {
		return fmt.Errorf("%w: %d FIDs", ErrBadMessage, n)
	}
	m.FIDs = make([]FID, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		m.FIDs = append(m.FIDs, FID(d.U64()))
	}
	return finish(d)
}

// ACLCreateResponse returns the server-assigned AID.
type ACLCreateResponse struct {
	AID AID
}

// Encode implements Message.
func (m *ACLCreateResponse) Encode(e *Encoder) { e.U32(uint32(m.AID)) }

// Decode implements Message.
func (m *ACLCreateResponse) Decode(d *Decoder) error {
	m.AID = AID(d.U32())
	return finish(d)
}

// StatResponse describes server capacity and commit-path activity.
type StatResponse struct {
	FragmentSize uint32
	TotalSlots   uint32
	FreeSlots    uint32
	Fragments    uint32 // stored fragments and reservations
	// UnitsHeld counts the FragmentSize/16-byte units that extents
	// (reservations included) hold: the space held to the unit, where
	// TotalSlots − FreeSlots rounds it up to whole slots.
	UnitsHeld uint32

	// Commit-path counters (cumulative since the server opened its
	// store): committed stores, logical sync barriers vs physical
	// fsyncs (the gap is group-commit coalescing), and cumulative
	// store latency.
	Stores       uint64
	SyncRequests uint64
	Syncs        uint64
	StoreNanos   uint64

	// Read-path counters (the serving-tier extent cache; all zero while
	// it has capacity 0, where every read is a range read): cache hits
	// and misses, readahead prefetches, bytes served from cached
	// extents vs read from disk (extent fills and range reads), and
	// current cache occupancy.
	ReadHits        uint64
	ReadMisses      uint64
	ReadaheadLoads  uint64
	ReadBytesCached uint64
	ReadBytesDisk   uint64
	ReadCacheBytes  uint64

	// Tenants is the per-principal QoS accounting (empty when the fair
	// scheduler is disabled), one entry per principal the scheduler has
	// seen, in ascending client order.
	Tenants []TenantStat
}

// TenantStat is one principal's QoS accounting on one server: how much
// work the weighted-fair scheduler admitted and served for it, how much
// the admission controller shed, and the service-latency distribution
// (enqueue to completion) of its requests.
type TenantStat struct {
	// Client is the principal (0 is the anonymous/default class).
	Client ClientID
	// Weight is the class's DRR weight.
	Weight uint32
	// Ops and Bytes count requests served and their byte-weighted cost.
	Ops   uint64
	Bytes uint64
	// Sheds counts requests rejected with StatusBusy at admission.
	Sheds uint64
	// Queued and QueuedBytes are the class's current queue depth.
	Queued      uint32
	QueuedBytes uint64
	// P50Micros and P99Micros are service-latency percentiles in
	// microseconds (queueing + execution), from a fixed-bucket
	// histogram: values are bucket upper bounds, not exact quantiles.
	P50Micros uint64
	P99Micros uint64
}

func (t *TenantStat) encode(e *Encoder) {
	e.U32(uint32(t.Client))
	e.U32(t.Weight)
	e.U64(t.Ops)
	e.U64(t.Bytes)
	e.U64(t.Sheds)
	e.U32(t.Queued)
	e.U64(t.QueuedBytes)
	e.U64(t.P50Micros)
	e.U64(t.P99Micros)
}

func (t *TenantStat) decode(d *Decoder) {
	t.Client = ClientID(d.U32())
	t.Weight = d.U32()
	t.Ops = d.U64()
	t.Bytes = d.U64()
	t.Sheds = d.U64()
	t.Queued = d.U32()
	t.QueuedBytes = d.U64()
	t.P50Micros = d.U64()
	t.P99Micros = d.U64()
}

// Encode implements Message.
func (m *StatResponse) Encode(e *Encoder) {
	e.U32(m.FragmentSize)
	e.U32(m.TotalSlots)
	e.U32(m.FreeSlots)
	e.U32(m.Fragments)
	e.U32(m.UnitsHeld)
	e.U64(m.Stores)
	e.U64(m.SyncRequests)
	e.U64(m.Syncs)
	e.U64(m.StoreNanos)
	e.U64(m.ReadHits)
	e.U64(m.ReadMisses)
	e.U64(m.ReadaheadLoads)
	e.U64(m.ReadBytesCached)
	e.U64(m.ReadBytesDisk)
	e.U64(m.ReadCacheBytes)
	e.U32(uint32(len(m.Tenants)))
	for i := range m.Tenants {
		m.Tenants[i].encode(e)
	}
}

// Decode implements Message.
func (m *StatResponse) Decode(d *Decoder) error {
	m.FragmentSize = d.U32()
	m.TotalSlots = d.U32()
	m.FreeSlots = d.U32()
	m.Fragments = d.U32()
	m.UnitsHeld = d.U32()
	m.Stores = d.U64()
	m.SyncRequests = d.U64()
	m.Syncs = d.U64()
	m.StoreNanos = d.U64()
	m.ReadHits = d.U64()
	m.ReadMisses = d.U64()
	m.ReadaheadLoads = d.U64()
	m.ReadBytesCached = d.U64()
	m.ReadBytesDisk = d.U64()
	m.ReadCacheBytes = d.U64()
	n := d.U32()
	if n > 1<<20 {
		return fmt.Errorf("%w: %d tenant stats", ErrBadMessage, n)
	}
	if n > 0 {
		m.Tenants = make([]TenantStat, 0, n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var t TenantStat
		t.decode(d)
		m.Tenants = append(m.Tenants, t)
	}
	return finish(d)
}
