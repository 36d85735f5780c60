package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"swarm/internal/server"
	"swarm/internal/wire"
)

// fakeClock drives the breaker's open-timeout without real sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newResilientPair builds Resilient → Flaky → Local over a fresh store.
func newResilientPair(t *testing.T, cfg ResilientConfig) (*Resilient, *Flaky) {
	t.Helper()
	fl := NewFlaky(NewLocal(1, newStore(t), 1))
	r := NewResilient(fl, cfg)
	t.Cleanup(func() { r.Close() })
	return r, fl
}

func TestResilientFullContract(t *testing.T) {
	fl := NewFlaky(NewLocal(1, newStore(t), 1))
	exerciseConn(t, NewResilient(fl, ResilientConfig{}))
}

// TestResilientOverForeignConnFullContract runs the contract through the
// op-dispatch adapter: a ServerConn this package did not build (here, a
// wrapper hiding the seam) is decorated op by op via its typed methods.
func TestResilientOverForeignConnFullContract(t *testing.T) {
	foreign := struct{ ServerConn }{NewLocal(1, newStore(t), 1)}
	exerciseConn(t, NewResilient(NewThrottled(foreign, NetModel{}), ResilientConfig{}))
}

func TestResilientRetriesTransientFailures(t *testing.T) {
	r, fl := newResilientPair(t, ResilientConfig{
		MaxRetries: 2,
		sleep:      func(time.Duration) {},
	})
	fl.FailNext(2, ErrUnavailable)
	data := bytes.Repeat([]byte{9}, 100)
	if err := r.Store(wire.MakeFID(1, 0), data, true, nil); err != nil {
		t.Fatalf("store with transient failures: %v", err)
	}
	h := r.Health()
	if h.Retries != 2 || h.Failures != 2 {
		t.Fatalf("health = %+v, want 2 retries / 2 failures", h)
	}
	if h.ConsecutiveFailures != 0 || h.State != "closed" {
		t.Fatalf("success did not reset the breaker: %+v", h)
	}
	got, err := r.Read(wire.MakeFID(1, 0), 0, 100)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back = (%d bytes, %v)", len(got), err)
	}
}

func TestResilientGivesUpAfterMaxRetries(t *testing.T) {
	r, fl := newResilientPair(t, ResilientConfig{
		MaxRetries:    2,
		FailThreshold: 100, // keep the breaker out of the picture
		sleep:         func(time.Duration) {},
	})
	fl.SetDown(true)
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping on dead server: %v", err)
	}
	if calls := fl.Calls(); calls != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", calls)
	}
}

func TestResilientNeverRetriesStatusErrors(t *testing.T) {
	r, fl := newResilientPair(t, ResilientConfig{sleep: func(time.Duration) {}})
	fid := wire.MakeFID(1, 0)
	data := bytes.Repeat([]byte{1}, 64)
	if err := r.Store(fid, data, false, nil); err != nil {
		t.Fatal(err)
	}
	before := fl.Calls()
	// A duplicate store is the server's authoritative answer: exactly one
	// attempt, no retries, and the breaker treats it as proof of liveness.
	if err := r.Store(fid, data, false, nil); !wire.IsStatus(err, wire.StatusExists) {
		t.Fatalf("duplicate store: %v", err)
	}
	if got := fl.Calls() - before; got != 1 {
		t.Fatalf("status error attempted %d times, want 1", got)
	}
	if h := r.Health(); h.Retries != 0 || h.ConsecutiveFailures != 0 {
		t.Fatalf("status error counted as transient: %+v", h)
	}
}

func TestResilientBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r, fl := newResilientPair(t, ResilientConfig{
		MaxRetries:    -1,
		FailThreshold: 3,
		OpenTimeout:   time.Second,
		now:           clk.now,
		sleep:         func(time.Duration) {},
	})

	// closed → open after FailThreshold consecutive transient failures.
	fl.SetDown(true)
	for i := 0; i < 3; i++ {
		if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	h := r.Health()
	if h.State != "open" || h.Trips != 1 {
		t.Fatalf("after %d failures: %+v", 3, h)
	}

	// Open circuit fails fast without touching the network.
	before := fl.Calls()
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fast-fail ping: %v", err)
	}
	if fl.Calls() != before {
		t.Fatal("open circuit still touched the network")
	}
	if h := r.Health(); h.FastFails == 0 {
		t.Fatalf("fast fail not counted: %+v", h)
	}

	// After OpenTimeout a probe is let through; the server is still down,
	// so the probe fails and the circuit re-opens.
	clk.advance(1100 * time.Millisecond)
	before = fl.Calls()
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("probe ping: %v", err)
	}
	if got := fl.Calls() - before; got != 1 {
		t.Fatalf("probe made %d calls, want exactly 1", got)
	}
	if h := r.Health(); h.State != "open" {
		t.Fatalf("failed probe left state %q, want open", h.State)
	}

	// Server recovers; the next probe succeeds and closes the circuit.
	fl.SetDown(false)
	clk.advance(1100 * time.Millisecond)
	if err := r.Ping(); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
	if h := r.Health(); h.State != "closed" || h.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery: %+v", h)
	}
}

func TestResilientBackoffBoundsAndJitter(t *testing.T) {
	var sleeps []time.Duration
	r, fl := newResilientPair(t, ResilientConfig{
		MaxRetries:    3,
		RetryBase:     8 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
		FailThreshold: 100,
		sleep:         func(d time.Duration) { sleeps = append(sleeps, d) },
	})
	fl.SetDown(true)
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping: %v", err)
	}
	// Exponential with jitter in [d/2, d]: 8ms, 16ms, then capped at 20ms.
	want := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("slept %d times, want %d", len(sleeps), len(want))
	}
	for i, d := range want {
		if sleeps[i] < d/2 || sleeps[i] > d {
			t.Fatalf("sleep %d = %v, want in [%v, %v]", i, sleeps[i], d/2, d)
		}
	}
}

func TestResilientFailsFastUnderInjectedLatency(t *testing.T) {
	// A dead-but-slow server costs its injected latency only until the
	// breaker trips; after that calls are rejected in microseconds, so
	// work bound for healthy servers is not serialized behind the dead
	// one.
	const latency = 30 * time.Millisecond
	r, fl := newResilientPair(t, ResilientConfig{
		MaxRetries:    -1,
		FailThreshold: 2,
		OpenTimeout:   time.Minute,
	})
	fl.SetDown(true)
	fl.SetLatency(latency)
	for i := 0; i < 2; i++ {
		if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if h := r.Health(); h.State != "open" {
		t.Fatalf("breaker not open: %+v", h)
	}
	const fastCalls = 20
	start := time.Now()
	for i := 0; i < fastCalls; i++ {
		if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("fast-fail ping %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// Serialized behind the latency this would take fastCalls*latency
	// (600ms); allow a generous fraction of that for slow CI machines.
	if elapsed > fastCalls*latency/4 {
		t.Fatalf("%d open-circuit calls took %v — not failing fast", fastCalls, elapsed)
	}
}

func TestResilientHalfOpenAdmitsSingleProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	probeStarted := make(chan struct{})
	probeRelease := make(chan struct{})
	st := newStore(t)
	fl := NewFlaky(&slowPing{ServerConn: NewLocal(1, st, 1), started: probeStarted, release: probeRelease})
	r := NewResilient(fl, ResilientConfig{
		MaxRetries:    -1,
		FailThreshold: 1,
		OpenTimeout:   time.Second,
		now:           clk.now,
		sleep:         func(time.Duration) {},
	})
	fl.FailNext(1, ErrUnavailable)
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("trip ping: %v", err)
	}
	clk.advance(2 * time.Second)

	// First caller enters the half-open probe and blocks inside Ping.
	done := make(chan error, 1)
	go func() { done <- r.Ping() }()
	<-probeStarted

	// A concurrent caller must not piggyback another request onto the
	// struggling server; it fails fast while the probe is in flight.
	if _, err := r.Stat(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("concurrent call during probe: %v", err)
	}
	close(probeRelease)
	if err := <-done; err != nil {
		t.Fatalf("probe ping: %v", err)
	}
	if h := r.Health(); h.State != "closed" {
		t.Fatalf("after successful probe: %+v", h)
	}
}

// slowPing blocks Ping until released, to hold a probe in flight.
type slowPing struct {
	ServerConn
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *slowPing) Ping() error {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return s.ServerConn.Ping()
}

// dropListener hands the server connections that lose responses: each of
// the first limit response writes (across all connections) closes its
// connection instead of reaching the client — a response lost after the
// server ran the request.
type dropListener struct {
	net.Listener
	limit int

	mu      sync.Mutex
	dropped int // guarded by mu
}

func (l *dropListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &dropConn{Conn: c, l: l}, nil
}

func (l *dropListener) drops() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

type dropConn struct {
	net.Conn
	l *dropListener
}

func (c *dropConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	drop := c.l.dropped < c.l.limit
	if drop {
		c.l.dropped++
	}
	c.l.mu.Unlock()
	if !drop {
		return c.Conn.Write(p)
	}
	c.Conn.Close()
	return 0, net.ErrClosed
}

// serveDropping serves st over TCP behind a dropListener and returns a
// Resilient connection to it.
func serveDropping(t *testing.T, st *server.Store, limit int, cfg ResilientConfig) (*Resilient, *dropListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dl := &dropListener{Listener: ln, limit: limit}
	srv := server.Serve(st, dl, nil)
	t.Cleanup(func() { srv.Close() })
	tc, err := DialTCPOpts(1, ln.Addr().String(), 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewResilient(tc, cfg)
	t.Cleanup(func() { r.Close() })
	return r, dl
}

// TestResilientLostACLCreateResponseRunsOnce: ACL creation is not
// idempotent, so when its response is lost no layer may re-send it — the
// server must end up holding exactly the one ACL it created.
func TestResilientLostACLCreateResponseRunsOnce(t *testing.T) {
	st := newStore(t)
	r, dl := serveDropping(t, st, 1, ResilientConfig{sleep: func(time.Duration) {}})
	if _, err := r.ACLCreate([]wire.ClientID{1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("acl-create with lost response: err = %v, want ErrUnavailable", err)
	}
	if got := dl.drops(); got != 1 {
		t.Fatalf("responses dropped = %d, want 1", got)
	}
	if _, err := st.ACLs().Members(1); err != nil {
		t.Fatalf("ACL 1 (the lost response's): %v", err)
	}
	if _, err := st.ACLs().Members(2); err == nil {
		t.Fatal("ACL 2 exists: the lost acl-create was re-sent and ran twice")
	}
}

// TestResilientLostResponsesMakeMaxRetriesPlusOneAttempts: against a
// server whose every response is lost, one operation costs exactly
// MaxRetries+1 wire attempts, and Health counts each as a failure.
func TestResilientLostResponsesMakeMaxRetriesPlusOneAttempts(t *testing.T) {
	const maxRetries = 2
	r, dl := serveDropping(t, newStore(t), int(^uint(0)>>1), ResilientConfig{
		MaxRetries: maxRetries,
		sleep:      func(time.Duration) {},
	})
	if err := r.Store(wire.MakeFID(1, 0), []byte("x"), false, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("store with every response lost: err = %v, want ErrUnavailable", err)
	}
	if got := dl.drops(); got != maxRetries+1 {
		t.Fatalf("wire attempts = %d, want MaxRetries+1 = %d", got, maxRetries+1)
	}
	if h := r.Health(); h.Failures != maxRetries+1 || h.Retries != maxRetries {
		t.Fatalf("health = %+v, want %d failures / %d retries", h, maxRetries+1, maxRetries)
	}
}

// TestResilientSilentServerCostsMaxRetriesPlusOneTimeouts: a hung server
// (accepts, reads, never answers) costs one I/O timeout per attempt —
// MaxRetries+1 in all — and not a hidden second timeout per attempt.
func TestResilientSilentServerCostsMaxRetriesPlusOneTimeouts(t *testing.T) {
	const maxRetries = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests sync.WaitGroup
	var mu sync.Mutex
	received := 0 // guarded by mu
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			requests.Add(1)
			go func() {
				defer requests.Done()
				defer c.Close()
				r := wire.NewConnReader(c)
				for {
					req, err := wire.ReadRequestFrame(r)
					if err != nil {
						return
					}
					wire.PutBuffer(req.Body)
					mu.Lock()
					received++
					mu.Unlock()
				}
			}()
		}
	}()

	tc, err := DialTCPOpts(1, ln.Addr().String(), 1, TCPOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	tc.SetIOTimeout(timeout)
	r := NewResilient(tc, ResilientConfig{MaxRetries: maxRetries, sleep: func(time.Duration) {}})
	start := time.Now()
	if err := r.Ping(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ping a silent server: err = %v, want ErrUnavailable", err)
	}
	elapsed := time.Since(start)
	r.Close()
	ln.Close()
	<-accepting
	requests.Wait()
	mu.Lock()
	got := received
	mu.Unlock()
	if got != maxRetries+1 {
		t.Fatalf("requests sent = %d (%v), want MaxRetries+1 = %d timeouts", got, elapsed, maxRetries+1)
	}
	if h := r.Health(); h.Failures != maxRetries+1 {
		t.Fatalf("health = %+v, want %d failures", h, maxRetries+1)
	}
}
