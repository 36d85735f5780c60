package swarm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"swarm/internal/aru"
	"swarm/internal/cleaner"
	"swarm/internal/core"
	"swarm/internal/erasure"
	"swarm/internal/ldisk"
	"swarm/internal/service"
	"swarm/internal/sting"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Well-known service IDs used by the facade. Service IDs appear in the
// log, so they are fixed constants, not allocated dynamically.
const (
	// ARUServiceID is the atomic-recovery-unit manager's service ID.
	ARUServiceID ServiceID = 3
	// LogicalDiskServiceID is the logical disk's service ID.
	LogicalDiskServiceID ServiceID = 4
	// StingServiceID is the Sting file system's service ID.
	StingServiceID = sting.DefaultServiceID
)

// ClientOptions configures a Swarm client (one log owner).
type ClientOptions struct {
	// FragmentSize must match the servers'. Default 1 MB.
	FragmentSize int
	// Width is the stripe width including parity; default all servers
	// (capped at the protocol maximum of 16).
	Width int
	// DisableParity trades availability for capacity.
	DisableParity bool
	// ParityShards is the number of redundancy fragments per stripe
	// (m): the stripe survives any m simultaneous server losses.
	// Default 1 (the paper's single rotating parity). Must be < Width.
	// Each stripe then holds Width-m data fragments, so write
	// amplification is Width/(Width-m).
	ParityShards int
	// Codec names the erasure code: "xor" (only valid with ParityShards
	// ≤ 1, the paper's single parity) or "rs" (GF(2^8)
	// Reed–Solomon, any k of n members reconstruct the rest). Default:
	// xor for ParityShards ≤ 1, rs otherwise. The codec is stamped into
	// every fragment header, so reconfiguring an existing log is safe —
	// old stripes keep decoding with the code that wrote them.
	Codec string
	// PipelineDepth bounds in-flight fragments per server. Default 2.
	PipelineDepth int
	// PreallocStripes reserves stripe slots on the servers when a stripe
	// opens, guaranteeing started stripes (and their parity) can always
	// be stored even if other clients fill the servers meanwhile.
	PreallocStripes bool
	// ReadaheadFragments enables fragment-grained read caching: cold
	// block reads fetch and cache whole fragments (the prefetch the
	// paper names as the missing read optimization). The value is the
	// number of fragments cached; 0 disables.
	ReadaheadFragments int
	// Protect creates an access control list on every server (initially
	// containing only this client) and stores every fragment under it,
	// so other clients cannot read or delete this log's data (§2.3.2).
	// Use Client.GrantAccess to admit other clients later.
	Protect bool
	// Resilience tunes the retry/circuit-breaker layer that ConnectAddrs
	// wraps around every TCP connection; the zero value selects the
	// defaults documented on ResilientConfig. In-process clusters connect
	// directly and ignore this.
	Resilience ResilientConfig
}

// Client is one Swarm client: the owner of one striped log, plus the
// service registry stacked on it.
type Client struct {
	id   ClientID
	log  *core.Log
	reg  *service.Registry
	rec  *core.Recovery
	opts ClientOptions

	mu     sync.Mutex
	conns  []transport.ServerConn
	acls   map[ServerID]wire.AID
	drains map[ServerID]*drainJob

	cleaner *cleaner.Cleaner
}

// ConnectAddrs connects to storage servers over TCP (the addresses of
// running swarmd processes, in cluster order) and opens/recovers the
// client's log.
func ConnectAddrs(id ClientID, addrs []string, opts ClientOptions) (*Client, error) {
	conns := make([]transport.ServerConn, 0, len(addrs))
	for i, addr := range addrs {
		sc, err := dialResilient(ServerID(i+1), addr, id, opts)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, sc)
	}
	return connect(id, conns, opts)
}

// dialResilient dials one storage server over TCP and wraps the
// connection in the retry/circuit-breaker layer.
func dialResilient(sid ServerID, addr string, id ClientID, opts ClientOptions) (transport.ServerConn, error) {
	tcpOpts := transport.TCPOptions{PoolSize: opts.PipelineDepth}
	var sc transport.ServerConn
	tc, err := transport.DialTCPOpts(sid, addr, id, tcpOpts)
	switch {
	case err == nil:
		sc = tc
	case errors.Is(err, transport.ErrUnavailable):
		// The server is unreachable right now, not misconfigured: a
		// degraded cluster must still be connectable (reads
		// reconstruct and writes degrade around the dead member), so
		// fall back to a lazily-dialed connection and let the
		// circuit breaker track the outage until the server answers.
		sc = transport.NewTCPConnOpts(sid, addr, id, tcpOpts)
	default:
		return nil, fmt.Errorf("connect server %d (%s): %w", sid, addr, err)
	}
	return transport.NewResilient(sc, opts.Resilience), nil
}

// connectLocal wires a client directly to in-process servers.
func connectLocal(id ClientID, servers []*Server, opts ClientOptions) (*Client, error) {
	conns := make([]transport.ServerConn, 0, len(servers))
	for i, s := range servers {
		conns = append(conns, transport.NewLocal(ServerID(i+1), s.store, id))
	}
	return connect(id, conns, opts)
}

func connect(id ClientID, conns []transport.ServerConn, opts ClientOptions) (*Client, error) {
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	var acls map[ServerID]wire.AID
	if opts.Protect {
		acls = make(map[ServerID]wire.AID, len(conns))
		for _, sc := range conns {
			aid, err := sc.ACLCreate([]ClientID{id})
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("create ACL on server %d: %w", sc.ID(), err)
			}
			acls[sc.ID()] = aid
		}
	}
	var codec erasure.Kind
	if opts.Codec != "" {
		var kerr error
		codec, kerr = erasure.ParseKind(opts.Codec)
		if kerr != nil {
			closeAll()
			return nil, kerr
		}
	}
	l, rec, err := core.Open(core.Config{
		Client:             id,
		Servers:            conns,
		FragmentSize:       opts.FragmentSize,
		Width:              opts.Width,
		DisableParity:      opts.DisableParity,
		ParityShards:       opts.ParityShards,
		Codec:              codec,
		PipelineDepth:      opts.PipelineDepth,
		PreallocStripes:    opts.PreallocStripes,
		ReadaheadFragments: opts.ReadaheadFragments,
		ACLs:               acls,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	return &Client{
		id:    id,
		log:   l,
		reg:   service.NewRegistry(l),
		rec:   rec,
		opts:  opts,
		conns: conns,
		acls:  acls,
	}, nil
}

// GrantAccess adds other clients to this client's fragment ACLs on every
// server: "once the client has been added to the appropriate ACLs, all
// data protected by those ACLs will be accessible" (§2.3.2). Only valid
// on clients connected with Protect.
func (c *Client) GrantAccess(ids ...ClientID) error {
	if len(c.acls) == 0 {
		return errors.New("swarm: client was not connected with Protect")
	}
	for _, sc := range c.servers() {
		aid, ok := c.aclOf(sc.ID())
		if !ok {
			continue
		}
		if err := sc.ACLModify(aid, ids, nil); err != nil {
			return fmt.Errorf("modify ACL on server %d: %w", sc.ID(), err)
		}
	}
	return nil
}

// RevokeAccess removes clients from this client's fragment ACLs.
func (c *Client) RevokeAccess(ids ...ClientID) error {
	if len(c.acls) == 0 {
		return errors.New("swarm: client was not connected with Protect")
	}
	for _, sc := range c.servers() {
		aid, ok := c.aclOf(sc.ID())
		if !ok {
			continue
		}
		if err := sc.ACLModify(aid, nil, ids); err != nil {
			return fmt.Errorf("modify ACL on server %d: %w", sc.ID(), err)
		}
	}
	return nil
}

// servers snapshots the connection list (it changes under AddServer and
// RemoveServer).
func (c *Client) servers() []transport.ServerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.ServerConn(nil), c.conns...)
}

func (c *Client) aclOf(id ServerID) (wire.AID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	aid, ok := c.acls[id]
	return aid, ok
}

// ID returns the client's identity.
func (c *Client) ID() ClientID { return c.id }

// Log exposes the client's striped log for direct block/record access.
func (c *Client) Log() *Log { return c.log }

// Registry exposes the service registry for custom services: implement
// swarm.Service and register it with the recovered state from Recovery.
func (c *Client) Registry() *Registry { return c.reg }

// Recovery returns the recovery state produced when the log was opened
// (fresh logs yield an empty recovery).
func (c *Client) Recovery() *Recovery { return c.rec }

// FSConfig configures a Sting mount.
type FSConfig struct {
	// BlockSize is the file data block size. Default 4096.
	BlockSize int
	// CacheBytes sizes the client block cache (0 disables).
	CacheBytes int64
	// DirtyLimit is the write-back threshold. Default 4 MB.
	DirtyLimit int64
}

// Mount mounts the Sting file system on this client's log, replaying any
// recovered state.
func (c *Client) Mount(cfg FSConfig) (*FS, error) {
	return sting.Mount(c.log, c.reg, c.rec, sting.Config{
		BlockSize:  cfg.BlockSize,
		CacheBytes: cfg.CacheBytes,
		DirtyLimit: cfg.DirtyLimit,
	})
}

// NewARUManager registers and returns an atomic-recovery-unit manager.
// replay receives committed records during crash recovery, in commit
// order; pass nil to ignore them.
func (c *Client) NewARUManager(replay func(payload []byte) error) (*ARUManager, error) {
	m := aru.New(ARUServiceID, c.log)
	if replay != nil {
		m.SetReplayHandler(replay)
	}
	if err := c.reg.Register(m, c.rec.Service(ARUServiceID)); err != nil {
		return nil, err
	}
	return m, nil
}

// NewLogicalDisk registers and returns a logical disk with the given
// block size.
func (c *Client) NewLogicalDisk(blockSize int) (*LogicalDisk, error) {
	d, err := ldisk.New(LogicalDiskServiceID, c.log, blockSize)
	if err != nil {
		return nil, err
	}
	if err := c.reg.Register(d, c.rec.Service(LogicalDiskServiceID)); err != nil {
		return nil, err
	}
	return d, nil
}

// StartCleaner starts a background cleaner with the given pass interval.
// It returns the cleaner for CleanOnce/Stats access; Close stops it.
func (c *Client) StartCleaner(interval time.Duration, cfg CleanerConfig) *Cleaner {
	c.cleaner = cleaner.New(c.log, c.reg, cfg)
	if interval > 0 {
		c.cleaner.Start(interval)
	}
	return c.cleaner
}

// RebuildServer restores redundancy after storage server id was replaced
// with an empty one: every missing fragment that belongs there is
// reconstructed from its stripe and stored back. Returns the number of
// fragments rebuilt.
func (c *Client) RebuildServer(id ServerID) (int, error) {
	return c.log.RebuildServer(id)
}

// Health reports per-server circuit-breaker state and retry/failure
// counters for connections wrapped by the resilient transport layer
// (ConnectAddrs and AddServer wrap every TCP connection). Connections
// without a resilience layer report nothing, so an in-process cluster
// returns an empty slice.
func (c *Client) Health() []Health {
	return transport.HealthOf(c.servers())
}

// Sync flushes the log.
func (c *Client) Sync() error { return c.log.Sync() }

// Close syncs the log, stops the cleaner, and releases connections.
// A connection whose server is down closes with ErrUnavailable; that is
// not a failure of Close — the local resources are released either way,
// and a client must be able to shut down cleanly over a dead server.
func (c *Client) Close() error {
	if c.cleaner != nil {
		c.cleaner.Stop()
	}
	c.stopDrains()
	err := c.log.Close()
	for _, sc := range c.servers() {
		cerr := sc.Close()
		if cerr == nil || errors.Is(cerr, transport.ErrUnavailable) {
			continue
		}
		if err == nil {
			err = cerr
		}
	}
	return err
}

// Cluster is a convenience bundle of in-process storage servers for
// embedding, examples, and tests.
type Cluster struct {
	servers []*Server
}

// NewLocalCluster starts n in-process storage servers.
func NewLocalCluster(n int, opts ServerOptions) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("swarm: cluster needs at least one server, got %d", n)
	}
	cl := &Cluster{}
	for i := 0; i < n; i++ {
		s, err := NewServer(opts)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.servers = append(cl.servers, s)
	}
	return cl, nil
}

// Servers returns the cluster's servers.
func (cl *Cluster) Servers() []*Server { return cl.servers }

// Connect opens a client over all of the cluster's servers.
func (cl *Cluster) Connect(id ClientID, opts ...ClientOptions) (*Client, error) {
	var o ClientOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return connectLocal(id, cl.servers, o)
}

// Close shuts every server down.
func (cl *Cluster) Close() error {
	var err error
	for _, s := range cl.servers {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
