package transport

import (
	"time"

	"swarm/internal/model"
	"swarm/internal/wire"
)

// NetModel holds the shared resources a throttled connection contends for.
// One ClientNIC is shared by all of a client's connections; one ServerNIC
// and ServerCPU are shared by all clients of a server. This reproduces the
// paper's switched-Ethernet topology, where the switch is non-blocking and
// each host link is the contention point.
type NetModel struct {
	Clock     model.Clock
	ClientNIC *model.Queue
	ServerNIC *model.Queue
	ServerCPU *model.Queue
	// Latency is charged per message (switch + protocol stack).
	Latency time.Duration
	// ReqOverhead is fixed server work charged per request.
	ReqOverhead time.Duration
}

// NewNetModel builds per-host resources from hardware parameters. Call it
// once per client (for the client NIC) and once per server (for the server
// NIC and CPU), then combine with Combine.
func NewNetModel(clock model.Clock, p model.HardwareParams) NetModel {
	if clock == nil {
		clock = model.WallClock{}
	}
	nm := NetModel{Clock: clock, Latency: p.NetLatency, ReqOverhead: p.ServerReqOverhead}
	if p.NetRate > 0 {
		nm.ClientNIC = model.NewQueue(clock, p.NetRate)
		nm.ServerNIC = model.NewQueue(clock, p.NetRate)
	}
	if p.ServerCPU > 0 {
		nm.ServerCPU = model.NewQueue(clock, p.ServerCPU)
	}
	return nm
}

// Throttled wraps a ServerConn with the network/server performance model.
type Throttled struct {
	conn
	inner rpc
	nm    NetModel
}

var _ ServerConn = (*Throttled)(nil)

// NewThrottled wraps inner so that every operation pays for network
// transfer, per-message latency, and server request processing according
// to nm.
func NewThrottled(inner ServerConn, nm NetModel) *Throttled {
	if nm.Clock == nil {
		nm.Clock = model.WallClock{}
	}
	t := &Throttled{inner: rpcOf(inner), nm: nm}
	t.conn = conn{id: inner.ID(), r: t}
	return t
}

// chargeWire models moving n payload bytes across the network plus one
// round of fixed costs. All three shared resources (the two host links
// and the server's request processing) are debited — that is where
// cross-client and cross-server contention comes from — but the caller
// sleeps only for the slowest of them: the stages of one transfer are
// pipelined (cut-through switching, processing while streaming), so a
// request's latency is its bottleneck stage, not the sum of stages.
func (t *Throttled) chargeWire(n int) {
	w := t.nm.ClientNIC.Reserve(n)
	if w2 := t.nm.ServerNIC.Reserve(n); w2 > w {
		w = w2
	}
	if w3 := t.nm.ServerCPU.Reserve(n); w3 > w {
		w = w3
	}
	t.nm.Clock.Sleep(w + t.nm.Latency + t.nm.ReqOverhead)
}

// chargeControl models a small request/response with no bulk payload.
func (t *Throttled) chargeControl() {
	t.nm.Clock.Sleep(t.nm.Latency + t.nm.ReqOverhead)
}

// call charges the model, then forwards: a store pays for its payload
// before it is sent, a successful read for the bytes it returned, and
// every other request (and a failed read) for one control round trip.
func (t *Throttled) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	switch op {
	case wire.OpStore:
		t.chargeWire(len(req.(*wire.StoreRequest).Data))
	case wire.OpRead:
		if err := t.inner.call(op, req, rsp); err != nil {
			t.chargeControl()
			return err
		}
		t.chargeWire(len(rsp.(*wire.ReadResponse).Data))
		return nil
	default:
		t.chargeControl()
	}
	return t.inner.call(op, req, rsp)
}

func (t *Throttled) close() error { return t.inner.close() }
