// QoS benchmark: performance isolation under multi-tenant overload
// (DESIGN.md §3.14). One greedy tenant (32 writers) and one light tenant
// (2 writers) share a 4-server cluster whose disks are the bottleneck.
// The same offered load runs under four regimes: the light tenant alone
// (its solo baseline), FIFO (the pre-QoS server, the ablation), the
// weighted-fair scheduler, and WFQ plus a byte quota on the greedy
// tenant with admission control shedding the excess. The headline is the
// light tenant's throughput and p99 staying near its solo baseline while
// the greedy tenant saturates the cluster — under FIFO the light tenant
// inherits the greedy tenant's queue — with aggregate goodput staying
// flat: fairness must reorder work, not destroy it.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"swarm/internal/model"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Tenant principals: the light tenant is client 1, the greedy client 2.
const (
	qosLightID  wire.ClientID = 1
	qosGreedyID wire.ClientID = 2
)

// QoSBenchConfig parameterizes the multi-tenant overload comparison.
type QoSBenchConfig struct {
	Servers       int
	FragBytes     int // per-store payload (= fragment size)
	LightWriters  int
	GreedyWriters int
	Duration      time.Duration // measured run per mode (after warmup)
	Warmup        time.Duration // settle time per mode; samples discarded
	Scale         float64
}

func (c QoSBenchConfig) withDefaults() QoSBenchConfig {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.FragBytes == 0 {
		c.FragBytes = 64 << 10
	}
	if c.LightWriters == 0 {
		c.LightWriters = 2
	}
	if c.GreedyWriters == 0 {
		c.GreedyWriters = 32
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.Scale == 0 {
		c.Scale = 25
	}
	return c
}

// QoSTenantResult is one tenant's measurement in one mode.
type QoSTenantResult struct {
	Tenant       string // "light" or "greedy"
	Writers      int
	Ops          int64
	MBps         float64 // normalized to 1999-equivalents
	P50MS, P99MS float64 // client-observed store latency
	Sheds        int64   // server-side admission rejections
	BusyRetries  int64   // client-side retries after sheds
}

// QoSResult is one scheduling regime's measurement.
type QoSResult struct {
	Mode          string // solo | fifo | wfq | wfq+quota
	Tenants       []QoSTenantResult
	AggregateMBps float64
}

// qosMode is one row of the sweep.
type qosMode struct {
	name  string
	solo  bool // only the light tenant offers load
	qos   bool // weighted-fair scheduler on
	quota bool // greedy byte quota + admission on top of WFQ
}

// RunQoS measures the multi-tenant sweep. Results come back in sweep
// order: solo, fifo, wfq, wfq+quota.
func RunQoS(cfg QoSBenchConfig, progress func(string)) ([]QoSResult, error) {
	cfg = cfg.withDefaults()
	if progress == nil {
		progress = func(string) {}
	}
	modes := []qosMode{
		{name: "solo", solo: true},
		{name: "fifo"},
		{name: "wfq", qos: true},
		{name: "wfq+quota", qos: true, quota: true},
	}
	var out []QoSResult
	for _, m := range modes {
		progress(fmt.Sprintf("qos: %s (%d+%d writers, %v)", m.name, cfg.LightWriters, cfg.GreedyWriters, cfg.Duration))
		r, err := runQoSMode(cfg, m)
		if err != nil {
			return out, fmt.Errorf("qos %s: %w", m.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// qosWriter is one writer goroutine's connection set and measurements.
type qosWriter struct {
	tenant wire.ClientID
	conns  []transport.ServerConn
	seq    uint64 // FID sequence base, unique per writer

	ops       int64
	latencies []time.Duration
}

func runQoSMode(cfg QoSBenchConfig, mode qosMode) (QoSResult, error) {
	params := model.Paper1999().Scaled(cfg.Scale)
	// Disk-bound regime: this figure studies the server's request
	// scheduler, so the scarce resource must be the one it schedules.
	// The 1999 fabric made the server CPU the bottleneck (the paper's
	// own observation); on the modern shape of the hardware — fast
	// NICs and cores, storage still serial — the disk is. Unlimited
	// NIC/CPU queues keep the contention where the scheduler can see
	// it instead of in front-of-server queues no QoS tier could touch.
	params.NetRate = 0
	params.ServerCPU = 0
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:      cfg.Servers,
		FragmentSize: cfg.FragBytes,
		Params:       params,
	})
	if err != nil {
		return QoSResult{}, err
	}
	if mode.qos {
		qcfg := server.QoSConfig{
			// Two slots per server: ordering is decided by the DRR
			// queue, not races into the disk queue behind it, and the
			// weight-proportional concurrency cap pins the greedy class
			// to one slot under contention — a dispatched light request
			// shares the disk with at most one greedy request in flight,
			// so its service time, not just its queue wait, stays near
			// the solo case.
			Slots:   2,
			Quantum: cfg.FragBytes,
			Classes: map[wire.ClientID]server.ClassConfig{
				qosLightID:  {Weight: 8},
				qosGreedyID: {Weight: 1},
			},
		}
		if mode.quota {
			// Admission bound: the greedy class may queue at most six
			// requests per server. Its 32 writers offer ~8 concurrent
			// requests per server, so the excess is shed with StatusBusy
			// and retried after backoff — yet six queued stores are ample
			// to keep the greedy slot busy, so aggregate goodput stays at
			// FIFO levels. The byte quota on top is a guardrail set above
			// the class's achievable steady rate (~0.15× the raw disk
			// rate through one slot): it only bites on bursts, because a
			// quota that binds at steady state would subtract its whole
			// deficit from aggregate goodput. Shedding the queue tail
			// instead converts overload into client backoff, which costs
			// the open-loop greedy tenant nothing it was going to get.
			g := qcfg.Classes[qosGreedyID]
			g.MaxQueuedOps = 6
			g.MaxQueuedBytes = int64(6 * cfg.FragBytes)
			g.ByteRate = 0.3 * params.DiskRate
			g.ByteBurst = g.ByteRate / 8
			qcfg.Classes[qosGreedyID] = g
		}
		for _, st := range cluster.Stores() {
			st.SetQoS(qcfg)
		}
	}

	// Build the writer fleet: every writer is its own client machine
	// (own NIC) with resilient connections, so shed requests are retried
	// with backoff exactly as a production client would.
	var writers []*qosWriter
	addWriters := func(tenant wire.ClientID, n int) {
		for i := 0; i < n; i++ {
			env := cluster.Client(tenant)
			conns := make([]transport.ServerConn, len(env.Conns))
			for j, sc := range env.Conns {
				conns[j] = transport.NewResilient(sc, transport.ResilientConfig{
					Seed: int64(tenant)<<16 + int64(i*len(env.Conns)+j) + 1,
				})
			}
			writers = append(writers, &qosWriter{
				tenant: tenant,
				conns:  conns,
				seq:    uint64(i+1) << 20,
			})
		}
	}
	addWriters(qosLightID, cfg.LightWriters)
	if !mode.solo {
		addWriters(qosGreedyID, cfg.GreedyWriters)
	}

	// Each writer stores fragments round-robin across the cluster and
	// deletes behind a fixed window, bounding disk occupancy so the run
	// length is set by Duration, not capacity. Stores that still fail
	// after the transport's busy retries count as sheds (server side)
	// and are simply re-offered: the workload is open-loop pressure.
	// Samples from the warmup window are discarded — the first instants
	// of a run mix cold allocator paths, empty queues, and unfull token
	// buckets, and dominate run-to-run variance at these durations.
	payload := make([]byte, cfg.FragBytes)
	const window = 16
	var wg sync.WaitGroup
	start := time.Now()
	warmEnd := start.Add(cfg.Warmup)
	deadline := warmEnd.Add(cfg.Duration)
	for wi, w := range writers {
		wg.Add(1)
		go func(wi int, w *qosWriter) {
			defer wg.Done()
			var stored []wire.FID
			for n := 0; time.Now().Before(deadline); n++ {
				fid := wire.MakeFID(w.tenant, w.seq+uint64(n))
				sc := w.conns[(wi+n)%len(w.conns)]
				t0 := time.Now()
				err := sc.Store(fid, payload, false, nil)
				if err != nil {
					// Exhausted busy retries (or a transient blip): the
					// request was shed, not served; don't count it.
					continue
				}
				if t0.After(warmEnd) {
					w.ops++
					w.latencies = append(w.latencies, time.Since(t0))
				}
				stored = append(stored, fid)
				if len(stored) > window {
					old := stored[0]
					stored = stored[1:]
					if derr := w.conns[(wi+n)%len(w.conns)].Delete(old); derr != nil {
						continue
					}
				}
			}
		}(wi, w)
	}
	wg.Wait()
	elapsed := time.Since(warmEnd)

	// Per-tenant rollup: ops and client-observed latency from the
	// writers, sheds from the servers' per-tenant accounting, busy
	// retries from the transports.
	type agg struct {
		writers int
		ops     int64
		lats    []time.Duration
		busy    int64
	}
	byTenant := map[wire.ClientID]*agg{}
	for _, w := range writers {
		a := byTenant[w.tenant]
		if a == nil {
			a = &agg{}
			byTenant[w.tenant] = a
		}
		a.writers++
		a.ops += w.ops
		a.lats = append(a.lats, w.latencies...)
		for _, h := range transport.HealthOf(w.conns) {
			a.busy += h.Busy
		}
	}
	sheds := map[wire.ClientID]int64{}
	for _, st := range cluster.Stores() {
		for _, tn := range st.Stats().Tenants {
			sheds[tn.Client] += int64(tn.Sheds)
		}
	}

	res := QoSResult{Mode: mode.name}
	var totalBytes float64
	for _, tenant := range []wire.ClientID{qosLightID, qosGreedyID} {
		a := byTenant[tenant]
		if a == nil {
			continue
		}
		name := "light"
		if tenant == qosGreedyID {
			name = "greedy"
		}
		bytes := float64(a.ops) * float64(cfg.FragBytes)
		totalBytes += bytes
		sort.Slice(a.lats, func(i, j int) bool { return a.lats[i] < a.lats[j] })
		res.Tenants = append(res.Tenants, QoSTenantResult{
			Tenant:      name,
			Writers:     a.writers,
			Ops:         a.ops,
			MBps:        bytes / elapsed.Seconds() / model.MB / cfg.Scale,
			P50MS:       durQuantileMS(a.lats, 0.50),
			P99MS:       durQuantileMS(a.lats, 0.99),
			Sheds:       sheds[tenant],
			BusyRetries: a.busy,
		})
	}
	res.AggregateMBps = totalBytes / elapsed.Seconds() / model.MB / cfg.Scale
	return res, nil
}

// durQuantileMS returns the q-th quantile of sorted latencies in ms.
func durQuantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// QoSIsolation summarizes the figure: how much of its solo throughput
// the light tenant keeps, and how its p99 stretches, in each contended
// mode. Values are ratios vs the solo baseline (0 when it is 0).
type QoSIsolation struct {
	Mode          string
	LightMBpsFrac float64 // 1.0 = no degradation
	LightP99X     float64 // 1.0 = no stretch
	AggVsFIFO     float64 // goodput ratio
}

// QoSIsolationSummary derives the per-mode isolation ratios from RunQoS's
// rows: solo, then fifo, with the light tenant first in every mode.
func QoSIsolationSummary(rows []QoSResult) []QoSIsolation {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var out []QoSIsolation
	for _, r := range rows[1:] {
		solo, light := rows[0].Tenants[0], r.Tenants[0]
		out = append(out, QoSIsolation{
			Mode:          r.Mode,
			LightMBpsFrac: ratio(light.MBps, solo.MBps),
			LightP99X:     ratio(light.P99MS, solo.P99MS),
			AggVsFIFO:     ratio(r.AggregateMBps, rows[1].AggregateMBps),
		})
	}
	return out
}
