package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"swarm/internal/wire"
)

// ResilientConfig tunes the retry and circuit-breaker behavior of a
// Resilient connection. The zero value selects the defaults noted on each
// field.
type ResilientConfig struct {
	// MaxRetries is how many times a transiently failing operation is
	// retried (total attempts = MaxRetries+1). Server-originated
	// *wire.StatusError responses are authoritative and never retried.
	// Default 2; negative disables retries.
	MaxRetries int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt. Default 5ms.
	RetryBase time.Duration
	// RetryMax caps the backoff delay. Default 250ms.
	RetryMax time.Duration
	// BusyRetries is how many times a wire.StatusBusy shed is retried
	// (total attempts = BusyRetries+1). Busy means the server's
	// admission controller rejected the request without executing it,
	// so retrying is always safe — even for non-idempotent operations —
	// and busy responses never count toward the circuit breaker: a
	// shedding server is a live server. Default 8; negative disables.
	BusyRetries int
	// FailThreshold is the number of consecutive transient failures
	// (counting individual attempts) that opens the circuit. Default 4.
	FailThreshold int
	// OpenTimeout is how long an open circuit rejects calls outright
	// before a probe is allowed through. Default 1s.
	OpenTimeout time.Duration
	// Seed seeds the backoff jitter source, so chaos runs are
	// reproducible. 0 uses a fixed default.
	Seed int64

	// Test hooks (package-internal): fake time and sleep.
	now   func() time.Time
	sleep func(time.Duration)
}

func (cfg ResilientConfig) withDefaults() ResilientConfig {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 5 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 250 * time.Millisecond
	}
	if cfg.BusyRetries == 0 {
		cfg.BusyRetries = 8
	}
	if cfg.BusyRetries < 0 {
		cfg.BusyRetries = 0
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 4
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	return cfg
}

// Breaker states. Closed admits calls; open rejects them instantly (a
// dead server must not stall every stripe behind its timeout); half-open
// admits a single Ping probe that decides between the two.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func stateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Health is a snapshot of one server connection's failure-handling state.
type Health struct {
	Server wire.ServerID
	// State is the circuit state: "closed", "open", or "half-open".
	State string
	// Ops counts operations started (not individual attempts).
	Ops int64
	// Failures counts transient attempt failures.
	Failures int64
	// Retries counts retried attempts.
	Retries int64
	// Busy counts wire.StatusBusy sheds observed (each is retried with
	// backoff up to BusyRetries times without tripping the breaker).
	Busy int64
	// Trips counts closed→open transitions.
	Trips int64
	// FastFails counts calls rejected without touching the network
	// because the circuit was open.
	FastFails int64
	// ConsecutiveFailures is the current run of transient failures.
	ConsecutiveFailures int
}

// Resilient wraps a ServerConn with per-operation retries (exponential
// backoff with jitter), transient/permanent error classification, and a
// per-server circuit breaker, so every layer stacked on the transport
// inherits recovery-aware RPC. It is the only layer that re-sends a
// request: one operation makes at most MaxRetries+1 transport attempts
// (plus busy-shed retries), and Health counts every one of them. Safe for
// concurrent use.
type Resilient struct {
	conn
	inner rpc
	cfg   ResilientConfig

	mu          sync.Mutex
	state       int        // guarded by mu
	consec      int        // guarded by mu
	openedUntil time.Time  // guarded by mu
	probing     bool       // guarded by mu
	rng         *rand.Rand // guarded by mu

	ops, failures, retries, busy, trips, fastFails int64 // guarded by mu
}

var _ ServerConn = (*Resilient)(nil)

// NewResilient wraps inner with retry and circuit-breaker behavior.
func NewResilient(inner ServerConn, cfg ResilientConfig) *Resilient {
	cfg = cfg.withDefaults()
	r := &Resilient{
		inner: rpcOf(inner),
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	r.conn = conn{id: inner.ID(), r: r}
	return r
}

// Health returns a snapshot of the connection's circuit state and
// counters.
func (r *Resilient) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Health{
		Server:              r.id,
		State:               stateName(r.state),
		Ops:                 r.ops,
		Failures:            r.failures,
		Retries:             r.retries,
		Busy:                r.busy,
		Trips:               r.trips,
		FastFails:           r.fastFails,
		ConsecutiveFailures: r.consec,
	}
}

// isTransient reports whether err could plausibly succeed on retry. A
// *wire.StatusError is the server's authoritative answer — the request
// was delivered and processed — so it is never retried; everything else
// (ErrUnavailable, socket errors, timeouts) is a transport-level failure.
func isTransient(err error) bool {
	var se *wire.StatusError
	return err != nil && !errors.As(err, &se)
}

// Outcome classes for one attempt, from the retry loop's point of view.
const (
	// outcomeFinal: success or an authoritative server answer — the
	// request was delivered and processed, the answer will not change
	// on retry. Return it to the caller.
	outcomeFinal = iota
	// outcomeTransient: a transport-level failure (socket error,
	// timeout, ErrUnavailable). Retry up to MaxRetries; counts toward
	// the circuit breaker.
	outcomeTransient
	// outcomeBusy: the server's admission controller shed the request
	// before executing it (wire.StatusBusy). Retry with backoff up to
	// BusyRetries; resets the breaker — a shedding server is alive.
	outcomeBusy
)

// classifyStatus maps a wire status to an outcome class. The switch is
// exhaustive over wire.AllStatuses() — enforced by test — so a new
// status cannot be added without an explicit decision here; it can never
// silently default to permanent. The boolean reports whether the status
// has an entry (false only for codes this build does not know).
func classifyStatus(s wire.Status) (int, bool) {
	switch s {
	case wire.StatusOK, wire.StatusNotFound, wire.StatusNoSpace,
		wire.StatusAccess, wire.StatusExists, wire.StatusBadRequest,
		wire.StatusInternal:
		return outcomeFinal, true
	case wire.StatusBusy:
		return outcomeBusy, true
	default:
		// A status this build does not know (a newer server?):
		// authoritative-and-final is the safe reading — retrying an
		// unknown answer could repeat a non-idempotent operation.
		return outcomeFinal, false
	}
}

// classify maps one attempt's error to an outcome class.
func classify(err error) int {
	if err == nil {
		return outcomeFinal
	}
	var se *wire.StatusError
	if errors.As(err, &se) {
		out, _ := classifyStatus(se.Status)
		return out
	}
	return outcomeTransient
}

// admit enforces the circuit breaker before an attempt touches the
// network. In half-open state the first caller sends a Ping probe; its
// outcome closes or re-opens the circuit. Concurrent callers fail fast
// while the probe is in flight.
func (r *Resilient) admit(op wire.Op) error {
	r.mu.Lock()
	switch r.state {
	case breakerClosed:
		r.mu.Unlock()
		return nil
	case breakerOpen:
		if r.cfg.now().Before(r.openedUntil) {
			r.fastFails++
			r.mu.Unlock()
			return fmt.Errorf("%w: server %d %v: circuit open, failing fast", ErrUnavailable, r.id, op)
		}
		r.state = breakerHalfOpen
	}
	if r.probing {
		r.fastFails++
		r.mu.Unlock()
		return fmt.Errorf("%w: server %d %v: circuit half-open, probe in flight", ErrUnavailable, r.id, op)
	}
	r.probing = true
	r.mu.Unlock()

	perr := r.inner.call(wire.OpPing, &wire.PingRequest{}, &wire.GenericResponse{})
	r.mu.Lock()
	r.probing = false
	if isTransient(perr) {
		r.state = breakerOpen
		r.openedUntil = r.cfg.now().Add(r.cfg.OpenTimeout)
		r.mu.Unlock()
		return fmt.Errorf("%w: server %d %v: probe failed: %v", ErrUnavailable, r.id, op, perr)
	}
	// The server answered — even an error status proves liveness.
	r.state = breakerClosed
	r.consec = 0
	r.mu.Unlock()
	return nil
}

func (r *Resilient) onSuccess() {
	r.mu.Lock()
	r.consec = 0
	r.state = breakerClosed
	r.mu.Unlock()
}

// onBusy records a shed: the server is alive and answering, so the
// breaker resets exactly as on success — a server protecting itself from
// overload must not read as a dead one (tripping would convert "please
// back off" into a storm of fast-fails and probes).
func (r *Resilient) onBusy() {
	r.mu.Lock()
	r.busy++
	r.consec = 0
	r.state = breakerClosed
	r.mu.Unlock()
}

func (r *Resilient) onFailure() {
	r.mu.Lock()
	r.failures++
	r.consec++
	if r.state == breakerClosed && r.consec >= r.cfg.FailThreshold {
		r.state = breakerOpen
		r.openedUntil = r.cfg.now().Add(r.cfg.OpenTimeout)
		r.trips++
	}
	r.mu.Unlock()
}

// backoff returns the delay before retry number attempt (0-based), using
// exponential growth with jitter in [d/2, d] so synchronized clients
// don't hammer a recovering server in lockstep.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.cfg.RetryBase << uint(attempt)
	if d <= 0 || d > r.cfg.RetryMax {
		d = r.cfg.RetryMax
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	return d/2 + j
}

// call runs one logical operation through the breaker and retry loop.
// Transient failures and busy sheds have separate retry budgets: a
// request bounced by an overloaded server should not spend the budget
// reserved for a flaky network, and vice versa. A store retried after
// its first attempt committed surfaces as wire.StatusExists, which the
// log layer's ship path treats as success.
func (r *Resilient) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	if err := r.admit(op); err != nil {
		return err
	}
	r.mu.Lock()
	r.ops++
	r.mu.Unlock()
	transient, busy := 0, 0
	for {
		err := r.inner.call(op, req, rsp)
		switch classify(err) {
		case outcomeFinal:
			// Success, or a definitive server response.
			r.onSuccess()
			return err

		case outcomeBusy:
			r.onBusy()
			if busy >= r.cfg.BusyRetries {
				return err
			}
			r.cfg.sleep(r.backoff(busy))
			busy++
			// No re-admit: onBusy just proved the server alive and
			// closed the breaker; probing a shedding server only adds
			// load. Busy is returned before the handler runs, so even
			// ACL creation is safe to re-send.

		default: // outcomeTransient
			r.onFailure()
			// ACL creation is not idempotent: the lost response may
			// belong to a request the server ran, and a retry would
			// create a second ACL and leak the first.
			if op == wire.OpACLCreate || transient >= r.cfg.MaxRetries {
				return err
			}
			r.cfg.sleep(r.backoff(transient))
			transient++
			// The circuit may have opened while we were backing off (our
			// own failures or a concurrent caller's).
			if aerr := r.admit(op); aerr != nil {
				return aerr
			}
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
		}
	}
}

// close bypasses the breaker: releasing local resources must work
// regardless of the server's health.
func (r *Resilient) close() error { return r.inner.close() }

// HealthReporter is implemented by connections that expose per-server
// failure-handling state (Resilient, and wrappers that delegate to one).
type HealthReporter interface {
	Health() Health
}

// HealthOf returns health snapshots for every connection that reports
// one, in cluster order.
func HealthOf(conns []ServerConn) []Health {
	var out []Health
	for _, sc := range conns {
		if hr, ok := sc.(HealthReporter); ok {
			out = append(out, hr.Health())
		}
	}
	return out
}
