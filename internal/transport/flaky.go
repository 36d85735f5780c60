package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"swarm/internal/wire"
)

// Flaky wraps a ServerConn for failure injection in tests: it can be
// brought down entirely (every call fails with ErrUnavailable, as a
// crashed server would), configured to fail the next N calls, made to
// fail each call with a seeded probability, or given injected latency —
// the chaos-harness modes exercised by the fault-tolerance tests.
type Flaky struct {
	conn
	inner rpc
	down  atomic.Bool

	mu        sync.Mutex
	failNext  int
	failErr   error
	failRate  float64
	rng       *rand.Rand
	latency   time.Duration
	callCount atomic.Int64
	failCount atomic.Int64
}

var _ ServerConn = (*Flaky)(nil)

// NewFlaky wraps inner; the connection starts healthy.
func NewFlaky(inner ServerConn) *Flaky {
	f := &Flaky{inner: rpcOf(inner)}
	f.conn = conn{id: inner.ID(), r: f}
	return f
}

// SetDown brings the simulated server down or back up.
func (f *Flaky) SetDown(down bool) { f.down.Store(down) }

// Down reports whether the simulated server is down.
func (f *Flaky) Down() bool { return f.down.Load() }

// FailNext makes the next n calls fail with err.
func (f *Flaky) FailNext(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext = n
	f.failErr = err
}

// SetFailureRate makes every call fail with probability p (an
// ErrUnavailable, as a lossy network would produce), drawn from a source
// seeded with seed so chaos runs are reproducible. p <= 0 disables.
func (f *Flaky) SetFailureRate(p float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRate = p
	f.rng = rand.New(rand.NewSource(seed))
}

// SetLatency injects a fixed delay before every call — including calls
// that will fail because the server is down, modeling the timeout cost a
// client pays talking to a hung peer. 0 disables.
func (f *Flaky) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Calls returns how many operations were attempted (including failed).
func (f *Flaky) Calls() int64 { return f.callCount.Load() }

// Failures returns how many operations were failed by injection.
func (f *Flaky) Failures() int64 { return f.failCount.Load() }

func (f *Flaky) gate() error {
	f.callCount.Add(1)
	f.mu.Lock()
	lat := f.latency
	f.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	if f.down.Load() {
		f.failCount.Add(1)
		return ErrUnavailable
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext > 0 {
		f.failNext--
		f.failCount.Add(1)
		return f.failErr
	}
	if f.failRate > 0 && f.rng.Float64() < f.failRate {
		f.failCount.Add(1)
		return fmt.Errorf("%w: injected failure", ErrUnavailable)
	}
	return nil
}

func (f *Flaky) call(op wire.Op, req wire.Message, rsp wire.Message) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.inner.call(op, req, rsp)
}

// close always releases the inner connection's resources, but closing a
// downed server reports ErrUnavailable — matching what a real transport
// sees when the peer crashed.
func (f *Flaky) close() error {
	err := f.inner.close()
	if f.down.Load() {
		return ErrUnavailable
	}
	return err
}
