package server

import (
	"sort"
	"sync"
	"time"

	"swarm/internal/model"
	"swarm/internal/wire"
)

// This file is the multi-tenant QoS tier (DESIGN.md §3.14): a
// per-principal weighted-fair scheduler (deficit round robin over
// byte-weighted request costs) with token-bucket quotas and admission
// control in front of the store's data-plane operations.
//
// The shape is a blocking gate, not a thread pool: the transport's own
// goroutine (a connWorker on the TCP path, the caller on the in-process
// path) enqueues itself, waits until the scheduler dispatches it, runs
// the handler, and on completion dispatches the next waiter. Dispatch
// happens inline under the scheduler mutex — there is no scheduler
// goroutine to wedge or leak — and the bounded "slots" count is what
// limits handler concurrency, playing the role the FIFO worker-pool
// semaphore played before.
//
// Overload is shed, never absorbed: admission bounds each class's queued
// bytes and ops, quotas are charged non-blockingly at admission
// (model.Throttle.TryAcquire), and a rejected request returns
// wire.StatusBusy, which transport.Resilient retries with backoff
// without tripping its circuit breaker. Shedding keeps the server's
// memory and goroutine budget proportional to what it will actually
// serve; blocking would let one tenant hold every connection worker
// hostage, which is the exact failure this tier removes.

// Default knobs. Slots matches the TCP front end's per-connection worker
// count so enabling QoS with one connection does not reduce attainable
// concurrency; the quantum is one typical fragment write so one DRR
// round at weight 1 admits about one data-plane request.
const (
	defaultQoSSlots       = 16
	defaultQoSQuantum     = 64 << 10
	defaultQoSMaxQueuedB  = 32 << 20
	defaultQoSMaxQueuedOp = 1024

	// qosMinCost floors a request's byte-weighted cost so metadata
	// operations are not free: a tenant spinning on LastMarked still
	// consumes its fair share.
	qosMinCost = 4096
)

// ClassConfig describes one tenant class: its fair-share weight and
// optional quotas and admission bounds. The zero value means "default
// everything": weight 1, no quotas, default queue bounds.
type ClassConfig struct {
	// Weight is the class's DRR weight; classes drain queued bytes in
	// proportion to their weights. Zero means 1.
	Weight int

	// ByteRate/ByteBurst, if ByteRate > 0, cap the class's admitted
	// byte-weighted cost per second with a token bucket. OpRate/OpBurst
	// likewise cap admitted operations per second. Requests over quota
	// are shed with StatusBusy, not queued: quota is a rate statement,
	// and queueing over-quota work would just convert it into latency.
	ByteRate  float64
	ByteBurst float64
	OpRate    float64
	OpBurst   float64

	// MaxQueuedBytes / MaxQueuedOps bound the class's queue; zero means
	// the defaults (32 MB, 1024 ops). Admission control sheds beyond
	// them so a tenant's backlog cannot grow without bound.
	MaxQueuedBytes int64
	MaxQueuedOps   int
}

// QoSConfig configures the server's weighted-fair scheduler.
type QoSConfig struct {
	// Slots bounds concurrently executing handlers (default 16).
	Slots int
	// Quantum is the DRR byte quantum added per weight unit per round
	// (default 64 KB).
	Quantum int
	// Default is the class applied to principals not listed in Classes
	// (including the anonymous principal, client 0).
	Default ClassConfig
	// Classes assigns per-principal classes.
	Classes map[wire.ClientID]ClassConfig
	// Clock supplies time for quotas and latency accounting (wall clock
	// when nil; a model.FakeClock makes quota tests deterministic).
	Clock model.Clock
}

// qosWaiter is one enqueued request: its byte-weighted cost, enqueue
// time (service latency is measured enqueue → completion), and the
// channel the dispatcher closes to release it.
type qosWaiter struct {
	cost  int64
	enq   time.Time
	ready chan struct{}
}

// qosClass is one principal's scheduler state.
type qosClass struct {
	client wire.ClientID
	weight int64

	// Quota buckets (nil = unlimited); Throttle is internally locked.
	bytes *model.Throttle
	ops   *model.Throttle

	maxQueuedBytes int64
	maxQueuedOps   int

	queue       []*qosWaiter // waiting requests, FIFO; guarded by mu (the scheduler's)
	queuedBytes int64        // sum of queued costs; guarded by mu (the scheduler's)
	inflight    int          // dispatched, not yet completed; guarded by mu (the scheduler's)
	active      bool         // class is in the DRR ring; guarded by mu (the scheduler's)
	charged     bool         // quantum granted for the current ring visit; guarded by mu (the scheduler's)
	deficit     int64        // DRR deficit in bytes; guarded by mu (the scheduler's)

	servedOps   uint64      // requests completed; guarded by mu (the scheduler's)
	servedBytes uint64      // byte-weighted cost completed; guarded by mu (the scheduler's)
	sheds       uint64      // requests rejected at admission; guarded by mu (the scheduler's)
	hist        latencyHist // service-latency histogram; guarded by mu (the scheduler's)
}

// qosSched is the weighted-fair scheduler: a DRR ring of active classes
// plus a bounded count of in-flight handlers.
type qosSched struct {
	clock    model.Clock
	slots    int
	quantum  int64
	defaults ClassConfig
	configs  map[wire.ClientID]ClassConfig

	mu       sync.Mutex
	inflight int                         // handlers currently dispatched; guarded by mu
	classes  map[wire.ClientID]*qosClass // all classes ever seen; guarded by mu
	ring     []*qosClass                 // classes with queued work; guarded by mu
	cursor   int                         // current DRR ring position; guarded by mu
}

// newQoSSched builds a scheduler from a config, applying defaults.
func newQoSSched(cfg QoSConfig) *qosSched {
	q := &qosSched{
		clock:    cfg.Clock,
		slots:    cfg.Slots,
		quantum:  int64(cfg.Quantum),
		defaults: cfg.Default,
		configs:  cfg.Classes,
		classes:  make(map[wire.ClientID]*qosClass),
	}
	if q.clock == nil {
		q.clock = model.WallClock{}
	}
	if q.slots <= 0 {
		q.slots = defaultQoSSlots
	}
	if q.quantum <= 0 {
		q.quantum = defaultQoSQuantum
	}
	return q
}

// classLocked returns (creating on first sight) the class for a client.
func (q *qosSched) classLocked(client wire.ClientID) *qosClass {
	c := q.classes[client]
	if c != nil {
		return c
	}
	cfg, ok := q.configs[client]
	if !ok {
		cfg = q.defaults
	}
	c = &qosClass{
		client:         client,
		weight:         int64(cfg.Weight),
		maxQueuedBytes: cfg.MaxQueuedBytes,
		maxQueuedOps:   cfg.MaxQueuedOps,
	}
	if c.weight <= 0 {
		c.weight = 1
	}
	if c.maxQueuedBytes <= 0 {
		c.maxQueuedBytes = defaultQoSMaxQueuedB
	}
	if c.maxQueuedOps <= 0 {
		c.maxQueuedOps = defaultQoSMaxQueuedOp
	}
	if cfg.ByteRate > 0 {
		burst := cfg.ByteBurst
		if burst <= 0 {
			// One second of rate: enough to absorb bursts without
			// letting the short-term rate run far past the quota.
			burst = cfg.ByteRate
		}
		c.bytes = model.NewThrottle(q.clock, cfg.ByteRate, burst)
	}
	if cfg.OpRate > 0 {
		burst := cfg.OpBurst
		if burst <= 0 {
			burst = cfg.OpRate
		}
		c.ops = model.NewThrottle(q.clock, cfg.OpRate, burst)
	}
	q.classes[client] = c
	return c
}

// Do runs fn under the scheduler as a request from client with the given
// byte-weighted cost. It returns false — without running fn — when the
// admission controller sheds the request (queue bound exceeded or quota
// empty); the caller must answer StatusBusy. Otherwise it blocks until
// the weighted-fair dispatcher grants a slot, runs fn, and returns true.
func (q *qosSched) Do(client wire.ClientID, cost int64, fn func()) bool {
	if cost < qosMinCost {
		cost = qosMinCost
	}
	q.mu.Lock()
	c := q.classLocked(client)
	// Admission control: bound the backlog...
	if c.queuedBytes+cost > c.maxQueuedBytes || len(c.queue) >= c.maxQueuedOps {
		c.sheds++
		q.mu.Unlock()
		return false
	}
	// ...then charge quotas, non-blockingly. Ops first, bytes second: a
	// byte-quota shed burns one op token, which is negligible next to
	// the retry the client is about to pay anyway.
	if !c.ops.TryAcquire(1) || !c.bytes.TryAcquire(int(cost)) {
		c.sheds++
		q.mu.Unlock()
		return false
	}
	w := &qosWaiter{cost: cost, enq: q.clock.Now(), ready: make(chan struct{})}
	c.queue = append(c.queue, w)
	c.queuedBytes += cost
	if !c.active {
		c.active = true
		c.charged = false
		c.deficit = 0
		q.ring = append(q.ring, c)
	}
	q.dispatchLocked()
	q.mu.Unlock()

	<-w.ready
	fn()

	q.mu.Lock()
	q.inflight--
	c.inflight--
	c.servedOps++
	c.servedBytes += uint64(cost)
	c.hist.record(q.clock.Now().Sub(w.enq))
	q.dispatchLocked()
	q.mu.Unlock()
	return true
}

// classCapLocked bounds one class's concurrently dispatched requests to
// its weight share of the slot budget (ceiling, never below one), taken
// over the classes currently competing — queued or in flight. A class
// alone on the server gets every slot; under contention a heavy class
// cannot occupy the whole in-flight window, so another tenant's request
// waits for at most a service time or two rather than a full window
// drain. This is the concurrency-dimension analogue of the DRR byte
// shares: DRR fixes the order work is dispatched, the cap fixes how much
// of the slot budget any one tenant's dispatched work may hold.
func (q *qosSched) classCapLocked(c *qosClass) int {
	var total int64
	competing := 0
	for _, o := range q.classes {
		if o.active || o.inflight > 0 {
			total += o.weight
			competing++
		}
	}
	if competing <= 1 || total <= 0 {
		return q.slots
	}
	cap := int((int64(q.slots)*c.weight + total - 1) / total)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// dispatchLocked releases queued waiters into free slots in DRR order:
// each ring visit grants a class weight×quantum of deficit, the class
// dispatches head-of-line requests while its deficit covers their cost,
// and drained classes leave the ring (forfeiting leftover deficit, so an
// idle tenant cannot bank credit). Every completion and every enqueue
// re-runs this, so progress never depends on a background goroutine.
func (q *qosSched) dispatchLocked() {
	// capSkips counts consecutive ring visits rejected by the per-class
	// concurrency cap. Once it exceeds the ring length every backlogged
	// class is at its cap, and only a completion (which re-runs this)
	// can make progress — without the counter that state would spin.
	capSkips := 0
	for q.inflight < q.slots && len(q.ring) > 0 && capSkips <= len(q.ring) {
		c := q.ring[q.cursor]
		cap := q.classCapLocked(c)
		if c.inflight >= cap {
			// At its concurrency cap: skip without granting quantum.
			capSkips++
			q.cursor = (q.cursor + 1) % len(q.ring)
			continue
		}
		if !c.charged {
			c.deficit += c.weight * q.quantum
			c.charged = true
		}
		for q.inflight < q.slots && c.inflight < cap && len(c.queue) > 0 && c.deficit >= c.queue[0].cost {
			w := c.queue[0]
			c.queue[0] = nil
			c.queue = c.queue[1:]
			c.queuedBytes -= w.cost
			c.deficit -= w.cost
			q.inflight++
			c.inflight++
			capSkips = 0
			close(w.ready)
		}
		if q.inflight >= q.slots {
			// Out of slots mid-visit: resume this class (charged stays
			// set, so the quantum is not granted twice) on the next
			// completion.
			return
		}
		if len(c.queue) == 0 {
			c.active = false
			c.charged = false
			c.deficit = 0
			c.queue = nil
			q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
			if q.cursor >= len(q.ring) {
				q.cursor = 0
			}
			continue
		}
		// Head request costs more than the accumulated deficit (the
		// deficit persists and grows next round until it suffices, so
		// large requests are delayed, never starved) — or the class hit
		// its concurrency cap mid-visit. Move on.
		c.charged = false
		if c.inflight >= cap {
			capSkips++
		}
		q.cursor = (q.cursor + 1) % len(q.ring)
	}
}

// TenantStats snapshots every class, in ascending client order.
func (q *qosSched) TenantStats() []wire.TenantStat {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]wire.TenantStat, 0, len(q.classes))
	for _, c := range q.classes {
		out = append(out, wire.TenantStat{
			Client:      c.client,
			Weight:      uint32(c.weight),
			Ops:         c.servedOps,
			Bytes:       c.servedBytes,
			Sheds:       c.sheds,
			Queued:      uint32(len(c.queue)),
			QueuedBytes: uint64(c.queuedBytes),
			P50Micros:   uint64(c.hist.quantile(0.50).Microseconds()),
			P99Micros:   uint64(c.hist.quantile(0.99).Microseconds()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// histBuckets spans 64 µs × 2^i: bucket 0 holds latencies ≤ 64 µs,
// bucket 25 ≈ 36 minutes; the last bucket is a catch-all.
const (
	histBuckets = 26
	histBase    = 64 * time.Microsecond
)

// latencyHist is a fixed-bucket latency histogram. Quantiles come back
// as bucket upper bounds — coarse (powers of two) but constant-space and
// mergeable, which is what a per-tenant stat on a hot path can afford.
// Synchronization is the owner's problem (the scheduler's mu).
type latencyHist struct {
	count   uint64
	buckets [histBuckets]uint64
}

// record adds one observation.
func (h *latencyHist) record(d time.Duration) {
	i := 0
	for b := histBase; d > b && i < histBuckets-1; b <<= 1 {
		i++
	}
	h.count++
	h.buckets[i]++
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile (0 when empty).
func (h *latencyHist) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return histBase << i
		}
	}
	return histBase << (histBuckets - 1)
}
