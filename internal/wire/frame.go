package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Frame errors.
var (
	// ErrBadMagic is returned when a frame does not start with the
	// protocol magic.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrBadCRC is returned when a frame fails its checksum.
	ErrBadCRC = errors.New("wire: frame checksum mismatch")
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame too large")
)

// Frame layout (little-endian):
//
//	offset  size  field
//	0       4     magic "SWM1"
//	4       1     kind (1 = request, 2 = response)
//	5       1     op
//	6       1     status (0 in requests)
//	7       8     request id (echoed in the response)
//	15      4     client id (requests) / 0 (responses)
//	19      4     body length N
//	23      N     body (encoded Message; error string for non-OK status)
//	23+N    4     CRC-32 (IEEE) over header + body
//
// MaxFrameSize bounds a single frame (fragments are ≤ a few MB).
const MaxFrameSize = 64 << 20

const (
	frameMagic   = 0x314d5753 // "SWM1" little-endian
	frameHdrSize = 4 + 1 + 1 + 1 + 8 + 4 + 4
	frameKindReq = 1
	frameKindRsp = 2
)

// Request is one client→server frame.
type Request struct {
	Op     Op
	ID     uint64 // request identifier, echoed in the response
	Client ClientID
	Body   []byte // encoded Message
}

// Response is one server→client frame. When Status != StatusOK, Body holds
// a length-prefixed error message instead of a message body.
type Response struct {
	Op     Op
	ID     uint64
	Status Status
	Body   []byte
}

// Err converts a non-OK response into an error, or returns nil.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	msg := ""
	d := NewDecoder(r.Body)
	if s := d.String32(); d.Err() == nil {
		msg = s
	}
	return &StatusError{Status: r.Status, Msg: msg}
}

// StatusError is the error form of a non-OK response.
type StatusError struct {
	Status Status
	Msg    string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server: %s", e.Status)
	}
	return fmt.Sprintf("server: %s: %s", e.Status, e.Msg)
}

// IsStatus reports whether err is a StatusError with the given status.
func IsStatus(err error, s Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == s
}

// writeFrame frames body (+ optional out-of-band payload) and writes it
// in one vectored call. On the wire the payload is simply the tail of the
// frame body: callers that pass one must have encoded its length prefix
// at the end of body (see PayloadMessage), which keeps the format
// byte-identical to encoding the payload inline while never copying it.
// When crcKnown is set, payloadCRC is the payload's CRC-32 and the frame
// checksum is combined from it rather than computed over the payload.
func writeFrame(w io.Writer, kind uint8, op Op, id uint64, aux uint32, status Status, body, payload []byte, payloadCRC uint32, crcKnown bool) error {
	if len(body)+len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = kind
	hdr[5] = uint8(op)
	hdr[6] = uint8(status)
	binary.LittleEndian.PutUint64(hdr[7:], id)
	binary.LittleEndian.PutUint32(hdr[15:], aux)
	binary.LittleEndian.PutUint32(hdr[19:], uint32(len(body)+len(payload)))
	crc := crc32.Update(0, crc32.IEEETable, hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crcKnown {
		crc = CombineCRC(crc, payloadCRC, len(payload))
	} else {
		crc = crc32.Update(crc, crc32.IEEETable, payload)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc)

	// net.Buffers turns into one writev on a *net.TCPConn and sequential
	// Writes elsewhere; either way the payload goes out without being
	// copied into an intermediate buffer.
	bufs := make(net.Buffers, 0, 4)
	bufs = append(bufs, hdr[:], body)
	if len(payload) > 0 {
		bufs = append(bufs, payload)
	}
	bufs = append(bufs, sum[:])
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame. The returned body comes from the buffer pool
// (GetBuffer); the caller owns it and should PutBuffer it once decoded
// values no longer alias it.
func readFrame(r io.Reader) (kind uint8, op Op, id uint64, aux uint32, status Status, body []byte, err error) {
	var hdr [frameHdrSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		err = ErrBadMagic
		return
	}
	kind = hdr[4]
	op = Op(hdr[5])
	status = Status(hdr[6])
	id = binary.LittleEndian.Uint64(hdr[7:])
	aux = binary.LittleEndian.Uint32(hdr[15:])
	n := binary.LittleEndian.Uint32(hdr[19:])
	if n > MaxFrameSize {
		err = ErrFrameTooLarge
		return
	}
	body = GetBuffer(int(n))
	if _, err = io.ReadFull(r, body); err != nil {
		PutBuffer(body)
		body = nil
		return
	}
	var sum [4]byte
	if _, err = io.ReadFull(r, sum[:]); err != nil {
		PutBuffer(body)
		body = nil
		return
	}
	crc := crc32.Update(0, crc32.IEEETable, hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != binary.LittleEndian.Uint32(sum[:]) {
		PutBuffer(body)
		body = nil
		err = ErrBadCRC
	}
	return
}

// encodeMessage encodes msg for framing, splitting off the bulk payload
// when the message carries one out-of-band.
func encodeMessage(msg Message) (body, payload []byte) {
	e := NewEncoder(64)
	if pm, ok := msg.(PayloadMessage); ok {
		pm.EncodeHeader(e)
		return e.Bytes(), pm.Payload()
	}
	msg.Encode(e)
	return e.Bytes(), nil
}

// WriteRequest frames and writes a request carrying msg.
func WriteRequest(w io.Writer, op Op, id uint64, client ClientID, msg Message) error {
	body, payload := encodeMessage(msg)
	return writeFrame(w, frameKindReq, op, id, uint32(client), 0, body, payload, 0, false)
}

// ReadRequestFrame reads one request frame.
func ReadRequestFrame(r io.Reader) (*Request, error) {
	kind, op, id, aux, _, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if kind != frameKindReq {
		return nil, fmt.Errorf("%w: expected request frame, got kind %d", ErrBadMessage, kind)
	}
	return &Request{Op: op, ID: id, Client: ClientID(aux), Body: body}, nil
}

// WriteResponse frames and writes an OK response carrying msg. A msg
// that knows its payload's CRC (PayloadChecksummer) spares the payload
// a hashing pass.
func WriteResponse(w io.Writer, op Op, id uint64, msg Message) error {
	body, payload := encodeMessage(msg)
	var crc uint32
	var known bool
	if pc, ok := msg.(PayloadChecksummer); ok {
		crc, known = pc.PayloadCRC()
	}
	return writeFrame(w, frameKindRsp, op, id, 0, StatusOK, body, payload, crc, known)
}

// WriteErrorResponse frames and writes a non-OK response with a message.
func WriteErrorResponse(w io.Writer, op Op, id uint64, status Status, msg string) error {
	e := NewEncoder(len(msg) + 4)
	e.String32(msg)
	return writeFrame(w, frameKindRsp, op, id, 0, status, e.Bytes(), nil, 0, false)
}

// ReadResponseFrame reads one response frame.
func ReadResponseFrame(r io.Reader) (*Response, error) {
	kind, op, id, _, status, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if kind != frameKindRsp {
		return nil, fmt.Errorf("%w: expected response frame, got kind %d", ErrBadMessage, kind)
	}
	return &Response{Op: op, ID: id, Status: status, Body: body}, nil
}

// BufferSizes for connection readers/writers; exported so both client and
// server sides use consistent values.
const (
	// ReadBufferSize is the bufio reader size for protocol connections.
	ReadBufferSize = 256 << 10
	// WriteBufferSize is the bufio writer size for protocol connections.
	WriteBufferSize = 256 << 10
)

// NewConnReader wraps a connection for frame reading.
func NewConnReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, ReadBufferSize) }

// NewConnWriter wraps a connection for frame writing.
func NewConnWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, WriteBufferSize) }
