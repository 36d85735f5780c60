package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"swarm"
	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/server"
	"swarm/internal/service"
	"swarm/internal/sting"
	"swarm/internal/transport"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// The cluster every workload runs on: RS(4,2) stripes over six servers,
// each a sparse FileDisk with real fsync behind a loopback listener, and
// two Sting clients.
const (
	numServers   = 6
	numClients   = 2
	parityShards = 2
	dataShards   = numServers - parityShards
	fragSize     = server.DefaultFragmentSize
	diskBytes    = 1 << 30
	// blockCacheBytes is each client's Sting block cache: a few MB, far
	// below every read workload's dataset.
	blockCacheBytes = 4 << 20
	// verifyReadahead turns on whole-fragment read caching for the
	// untimed read-back clients only, so verifying hundreds of MB costs
	// one round trip per fragment rather than one per 4 KB block.
	verifyReadahead = 4
)

// fileSystem is the part of a mounted Sting file system the workloads
// use; *sting.FS and the tracing decorator both provide it.
type fileSystem interface {
	Create(path string) (vfs.File, error)
	Open(path string) (vfs.File, error)
	Sync() error
}

// node is one server. An untraced node is exactly what a user gets from
// swarm.NewServer; a traced node is the same store with a counting disk
// underneath and a counting listener in front.
type node struct {
	path  string
	plain *swarm.Server
	store *server.Store
	tcp   *server.TCPServer
	d     disk.Disk
}

func (n *node) addr() string {
	if n.plain != nil {
		return n.plain.Addr()
	}
	return n.tcp.Addr()
}

func (n *node) close() error {
	if n.plain != nil {
		return n.plain.Close()
	}
	err := n.tcp.Close()
	n.store.Close()
	if cerr := n.d.Close(); err == nil {
		err = cerr
	}
	return err
}

type cluster struct {
	tr    *tracer // nil when untraced
	nodes []*node // nil entries are servers closed on purpose
}

func startCluster(dir string, tr *tracer) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create cluster dir: %w", err)
	}
	cl := &cluster{tr: tr, nodes: make([]*node, numServers)}
	for i := range cl.nodes {
		n, err := cl.startNode(filepath.Join(dir, fmt.Sprintf("server%d.disk", i+1)), false)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.nodes[i] = n
	}
	return cl, nil
}

func (cl *cluster) startNode(path string, reuse bool) (*node, error) {
	if cl.tr == nil {
		s, err := swarm.NewServer(swarm.ServerOptions{
			DiskPath:  path,
			DiskBytes: diskBytes,
			Listen:    "127.0.0.1:0",
			Reuse:     reuse,
		})
		if err != nil {
			return nil, fmt.Errorf("start server on %s: %w", path, err)
		}
		return &node{path: path, plain: s}, nil
	}
	fd, err := disk.OpenFileDisk(path, diskBytes)
	if err != nil {
		return nil, err
	}
	d := &tracedDisk{Disk: fd, c: &cl.tr.disk, on: &cl.tr.on}
	var st *server.Store
	if reuse {
		st, err = server.Open(d)
	} else {
		st, err = server.Format(d, server.Config{FragmentSize: fragSize})
	}
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("open store on %s: %w", path, err)
	}
	st.SetReadCache(server.DefaultReadCacheBytes, server.DefaultReadahead)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		d.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	tcp := server.Serve(st, &countingListener{Listener: ln, w: &cl.tr.wire}, nil)
	return &node{path: path, store: st, tcp: tcp, d: d}, nil
}

func (cl *cluster) addrs() []string {
	out := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		if n != nil {
			out[i] = n.addr()
		} else {
			out[i] = "127.0.0.1:1" // closed on purpose; never answers
		}
	}
	return out
}

// kill closes server i while clients keep running.
func (cl *cluster) kill(i int) error {
	n := cl.nodes[i]
	cl.nodes[i] = nil
	return n.close()
}

// restart closes every server and reopens each from its disk (Reuse),
// on fresh listeners.
func (cl *cluster) restart() error {
	for i, n := range cl.nodes {
		if err := n.close(); err != nil {
			return fmt.Errorf("close server %d: %w", i+1, err)
		}
		cl.nodes[i] = nil
		nn, err := cl.startNode(n.path, true)
		if err != nil {
			return err
		}
		cl.nodes[i] = nn
	}
	return nil
}

func (cl *cluster) close() error {
	var err error
	for i, n := range cl.nodes {
		if n == nil {
			continue
		}
		if cerr := n.close(); cerr != nil && err == nil {
			err = cerr
		}
		cl.nodes[i] = nil
	}
	return err
}

// client is one mounted Sting client. Untraced clients come from
// swarm.ConnectAddrs and Client.Mount; traced ones assemble the same
// layers with decorators between them.
type client struct {
	id    int
	plain *swarm.Client
	log   *core.Log
	conns []transport.ServerConn
	sting *sting.FS
	fs    fileSystem
	ct    *clientTrace // nil when untraced
}

func (cl *cluster) connect(id int, readahead int, cacheBytes int64) (*client, error) {
	cid := swarm.ClientID(id)
	if cl.tr == nil {
		sc, err := swarm.ConnectAddrs(cid, cl.addrs(), swarm.ClientOptions{
			ParityShards:       parityShards,
			ReadaheadFragments: readahead,
		})
		if err != nil {
			return nil, fmt.Errorf("connect client %d: %w", id, err)
		}
		fs, err := sc.Mount(swarm.FSConfig{CacheBytes: cacheBytes})
		if err != nil {
			sc.Close()
			return nil, fmt.Errorf("mount client %d: %w", id, err)
		}
		return &client{id: id, plain: sc, log: sc.Log(), sting: fs, fs: fs}, nil
	}
	ct := &clientTrace{t: cl.tr, client: uint8(id)}
	conns := make([]transport.ServerConn, 0, numServers)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i, addr := range cl.addrs() {
		var sc transport.ServerConn
		tc, err := transport.DialTCPOpts(wire.ServerID(i+1), addr, cid, transport.TCPOptions{})
		switch {
		case err == nil:
			sc = tc
		case errors.Is(err, transport.ErrUnavailable):
			sc = transport.NewTCPConnOpts(wire.ServerID(i+1), addr, cid, transport.TCPOptions{})
		default:
			closeAll()
			return nil, fmt.Errorf("connect client %d to server %d: %w", id, i+1, err)
		}
		res := transport.NewResilient(sc, transport.ResilientConfig{})
		conns = append(conns, &tracedConn{ServerConn: res, health: res, ct: ct})
	}
	l, rec, err := core.Open(core.Config{
		Client:             cid,
		Servers:            conns,
		ParityShards:       parityShards,
		ReadaheadFragments: readahead,
	})
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("open log for client %d: %w", id, err)
	}
	fs, err := sting.Mount(l, service.NewRegistry(l), rec, sting.Config{CacheBytes: cacheBytes})
	if err != nil {
		l.Close()
		closeAll()
		return nil, fmt.Errorf("mount client %d: %w", id, err)
	}
	return &client{id: id, log: l, conns: conns, sting: fs, fs: &tracedFS{inner: fs, ct: ct}, ct: ct}, nil
}

func (c *client) health() []transport.Health {
	if c.plain != nil {
		return c.plain.Health()
	}
	return transport.HealthOf(c.conns)
}

// close unmounts Sting (flush, checkpoint, sync) and closes the client.
func (c *client) close() error {
	err := c.sting.Unmount()
	var cerr error
	if c.plain != nil {
		cerr = c.plain.Close()
	} else {
		cerr = c.log.Close()
		for _, sc := range c.conns {
			if e := sc.Close(); e != nil && !errors.Is(e, transport.ErrUnavailable) && cerr == nil {
				cerr = e
			}
		}
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("close client %d: %w", c.id, err)
	}
	return nil
}

// serverStats reads every live server's counters over the Stat RPC,
// through client c's connections. Closed servers are left zero.
func serverStats(c *client, cl *cluster) ([]wire.StatResponse, error) {
	out := make([]wire.StatResponse, numServers)
	for i, sc := range c.log.Servers() {
		if cl.nodes[i] == nil {
			continue
		}
		st, err := sc.Stat()
		if err != nil {
			return nil, fmt.Errorf("stat server %d: %w", i+1, err)
		}
		out[i] = st
	}
	return out, nil
}
