package server

import (
	"encoding/binary"
	"errors"

	"swarm/internal/wire"
)

// Handle dispatches one decoded request against the store and returns the
// response status and body. It is transport-independent: the TCP front end
// and the in-process transport both call it.
//
// When the QoS tier is enabled (SetQoS), data-plane requests pass
// through the weighted-fair scheduler first: the calling goroutine
// blocks until its principal's turn, or gets StatusBusy back if the
// admission controller sheds it. Ping and Stat bypass the scheduler —
// the control plane must answer (health checks, the stats a human needs
// to diagnose the overload) precisely when the data plane is saturated.
func (s *Store) Handle(client wire.ClientID, op wire.Op, body []byte) (wire.Status, wire.Message) {
	q := s.qos
	if q == nil || op == wire.OpPing || op == wire.OpStat {
		return s.handle(client, op, body)
	}
	var status wire.Status
	var resp wire.Message
	if !q.Do(client, requestCost(op, body), func() {
		status, resp = s.handle(client, op, body)
	}) {
		return wire.StatusBusy, errMsgStr("over quota or queue bound; back off and retry")
	}
	return status, resp
}

// requestCost is a request's scheduling weight in bytes: the request
// body (which contains the payload for stores), or for reads the
// response length the client asked for — a read's cost is the bytes it
// moves out, not the 16-byte request that asks. Floored at qosMinCost so
// metadata operations are not free.
func requestCost(op wire.Op, body []byte) int64 {
	cost := int64(len(body))
	// ReadRequest layout: FID u64, Off u32, Len u32 (see wire.ReadRequest).
	if op == wire.OpRead && len(body) >= 16 {
		if l := int64(binary.LittleEndian.Uint32(body[12:16])); l > cost {
			cost = l
		}
	}
	if cost < qosMinCost {
		cost = qosMinCost
	}
	return cost
}

// handle is the scheduler-independent dispatch.
func (s *Store) handle(client wire.ClientID, op wire.Op, body []byte) (wire.Status, wire.Message) {
	switch op {
	case wire.OpPing:
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpStore:
		var req wire.StoreRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		if err := s.Store(req.FID, req.Data, req.Mark, req.Ranges); err != nil {
			return mapErr(err)
		}
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpRead:
		var req wire.ReadRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		data, ext, err := s.Read(client, req.FID, req.Off, req.Len)
		if err != nil {
			return mapErr(err)
		}
		if ext != nil {
			return wire.StatusOK, &cachedReadResponse{
				ReadResponse: wire.ReadResponse{Data: data},
				ext:          ext,
				off:          int(req.Off),
			}
		}
		return wire.StatusOK, &wire.ReadResponse{Data: data}

	case wire.OpDelete:
		var req wire.DeleteRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		if err := s.Delete(client, req.FID); err != nil {
			return mapErr(err)
		}
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpPrealloc:
		var req wire.PreallocRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		if err := s.Prealloc(req.FID); err != nil {
			return mapErr(err)
		}
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpLastMarked:
		var req wire.LastMarkedRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		fid, found := s.LastMarked(req.Client)
		return wire.StatusOK, &wire.LastMarkedResponse{FID: fid, Found: found}

	case wire.OpHasFragment:
		var req wire.HasFragmentRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		size, found := s.Has(req.FID)
		return wire.StatusOK, &wire.HasFragmentResponse{Found: found, Size: size}

	case wire.OpListFIDs:
		var req wire.ListFIDsRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		return wire.StatusOK, &wire.ListFIDsResponse{FIDs: s.List(req.Client)}

	case wire.OpACLCreate:
		var req wire.ACLCreateRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		aid := s.acls.Create(req.Members)
		return wire.StatusOK, &wire.ACLCreateResponse{AID: aid}

	case wire.OpACLModify:
		var req wire.ACLModifyRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		if err := s.acls.Modify(req.AID, req.Add, req.Remove); err != nil {
			return mapErr(err)
		}
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpACLDelete:
		var req wire.ACLDeleteRequest
		if err := req.Decode(wire.NewDecoder(body)); err != nil {
			return wire.StatusBadRequest, errMsg(err)
		}
		if err := s.acls.Delete(req.AID); err != nil {
			return mapErr(err)
		}
		return wire.StatusOK, &wire.GenericResponse{}

	case wire.OpStat:
		st := s.Stats()
		return wire.StatusOK, &st

	default:
		return wire.StatusBadRequest, errMsgStr("unknown op")
	}
}

// cachedReadResponse is a ReadResponse whose Data was copied out of a
// read-cache extent. Data is a pooled buffer like any other response
// payload; the extent is kept only for its checksum.
type cachedReadResponse struct {
	wire.ReadResponse
	ext *Extent
	off int // Data holds a copy of ext.buf[off : off+len(Data)]
}

// PayloadCRC implements wire.PayloadChecksummer for a range that ends at
// the extent's end and starts before its middle — fragio's payload fetch
// skipping the fragment header is the case that matters. Its CRC comes
// from the extent's own checksum and a hash of the short prefix; any
// other range is cheaper to hash directly.
func (m *cachedReadResponse) PayloadCRC() (uint32, bool) {
	n := len(m.Data)
	if m.off+n != len(m.ext.buf) || m.off >= n {
		return 0, false
	}
	return m.ext.tailCRC(m.off), true
}

// errBody carries an error string; non-OK responses encode it.
type errBody struct{ msg string }

func (e *errBody) Encode(enc *wire.Encoder) { enc.String32(e.msg) }
func (e *errBody) Decode(d *wire.Decoder) error {
	e.msg = d.String32()
	return d.Err()
}

func errMsg(err error) wire.Message     { return &errBody{msg: err.Error()} }
func errMsgStr(msg string) wire.Message { return &errBody{msg: msg} }

// ErrText extracts the error message from a non-OK response message
// produced by Handle.
func ErrText(msg wire.Message) string {
	if e, ok := msg.(*errBody); ok {
		return e.msg
	}
	return ""
}

func mapErr(err error) (wire.Status, wire.Message) {
	switch {
	case errors.Is(err, ErrNotFound):
		return wire.StatusNotFound, errMsg(err)
	case errors.Is(err, ErrExists):
		return wire.StatusExists, errMsg(err)
	case errors.Is(err, ErrNoSpace):
		return wire.StatusNoSpace, errMsg(err)
	case errors.Is(err, ErrAccess):
		return wire.StatusAccess, errMsg(err)
	case errors.Is(err, ErrNoACL):
		return wire.StatusNotFound, errMsg(err)
	case errors.Is(err, ErrTooLarge), errors.Is(err, ErrBadRange):
		return wire.StatusBadRequest, errMsg(err)
	default:
		return wire.StatusInternal, errMsg(err)
	}
}
