package transport

import (
	"swarm/internal/server"
	"swarm/internal/wire"
)

// localRPC calls straight into a server.Store's request handler, going
// through the full message codec so in-process clusters exercise the same
// protocol path as networked ones (minus the socket).
type localRPC struct {
	store  *server.Store
	client wire.ClientID
}

func (l *localRPC) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	e := wire.NewEncoder(64)
	req.Encode(e)
	status, msg := l.store.Handle(l.client, op, e.Bytes())
	if status != wire.StatusOK {
		return &wire.StatusError{Status: status, Msg: server.ErrText(msg)}
	}
	be := wire.NewEncoder(64)
	msg.Encode(be)
	// Encode copied any bulk payload into the response buffer, so the
	// server-owned original is dead: drop a cached extent's reference,
	// or recycle an exclusively-owned pooled payload — mirroring what
	// the TCP front end does after writing a frame.
	switch m := msg.(type) {
	case wire.PayloadReleaser:
		m.ReleasePayload()
	case wire.PayloadMessage:
		wire.PutBuffer(m.Payload())
	}
	return rsp.Decode(wire.NewDecoder(be.Bytes()))
}

func (*localRPC) close() error { return nil }

// NewLocal returns a ServerConn that serves requests from an in-process
// fragment store, identifying the caller as client.
func NewLocal(id wire.ServerID, st *server.Store, client wire.ClientID) ServerConn {
	return &conn{id: id, r: &localRPC{store: st, client: client}}
}
