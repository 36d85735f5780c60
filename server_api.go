package swarm

import (
	"fmt"
	"log"

	"swarm/internal/disk"
	"swarm/internal/server"
)

// ServerOptions configures one storage server.
type ServerOptions struct {
	// DiskPath backs the server with a file; empty uses memory.
	DiskPath string
	// DiskBytes is the disk capacity. Default 256 MB.
	DiskBytes int64
	// FragmentSize is the fragment slot size. Default 1 MB, matching
	// the paper's prototype. All servers of a cluster and all clients
	// must agree on it.
	FragmentSize int
	// Listen, when non-empty, serves the wire protocol on this TCP
	// address (e.g. "127.0.0.1:0").
	Listen string
	// Logger receives server diagnostics (nil discards).
	Logger *log.Logger
	// Reuse opens an existing formatted disk instead of formatting.
	Reuse bool
	// ReadCacheBytes sizes the server's fragment-extent read cache
	// (DESIGN.md §3.13). Zero uses the default (64 MB); negative
	// disables caching entirely: every read is a range read of its
	// bytes.
	ReadCacheBytes int64
	// ReadaheadFragments is how many upcoming fragments a cache hit
	// prefetches off the same disk pass. Zero uses the default (4);
	// negative disables readahead.
	ReadaheadFragments int
	// QoS, when non-nil, enables the multi-tenant weighted-fair
	// scheduler with quotas and admission control (DESIGN.md §3.14).
	// Nil (the default) keeps the FIFO request path. See README,
	// "Multi-tenant tuning".
	QoS *server.QoSConfig
}

// Server is one Swarm storage server: a fragment repository on a disk,
// optionally exported over TCP.
type Server struct {
	store *server.Store
	tcp   *server.TCPServer
	d     disk.Disk
}

// NewServer creates (or reopens) a storage server.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.DiskBytes == 0 {
		opts.DiskBytes = 256 << 20
	}
	if opts.FragmentSize == 0 {
		opts.FragmentSize = server.DefaultFragmentSize
	}
	var (
		d   disk.Disk
		err error
	)
	if opts.DiskPath != "" {
		d, err = disk.OpenFileDisk(opts.DiskPath, opts.DiskBytes)
		if err != nil {
			return nil, err
		}
	} else {
		d = disk.NewMemDisk(opts.DiskBytes)
	}
	var st *server.Store
	if opts.Reuse {
		st, err = server.Open(d)
	} else {
		st, err = server.Format(d, server.Config{FragmentSize: opts.FragmentSize})
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	cacheBytes := opts.ReadCacheBytes
	if cacheBytes == 0 {
		cacheBytes = server.DefaultReadCacheBytes
	}
	readahead := opts.ReadaheadFragments
	if readahead == 0 {
		readahead = server.DefaultReadahead
	}
	if readahead < 0 {
		readahead = 0
	}
	st.SetReadCache(cacheBytes, readahead)
	if opts.QoS != nil {
		st.SetQoS(*opts.QoS)
	}
	s := &Server{store: st, d: d}
	if opts.Listen != "" {
		s.tcp, err = server.ListenAndServe(st, opts.Listen, opts.Logger)
		if err != nil {
			d.Close()
			return nil, err
		}
	}
	return s, nil
}

// Addr returns the TCP listen address, or "" for in-process servers.
func (s *Server) Addr() string {
	if s.tcp == nil {
		return ""
	}
	return s.tcp.Addr()
}

// Stats describes the server's occupancy. Slots are units of
// fragmentSize capacity, not places: the store allocates each fragment
// only the FragmentSize/16-byte units it fills, totalSlots is its
// capacity in full fragments, and freeSlots is how many full-size
// fragments fit in its free space right now.
func (s *Server) Stats() (fragmentSize, totalSlots, freeSlots, fragments int) {
	st := s.store.Stats()
	return int(st.FragmentSize), int(st.TotalSlots), int(st.FreeSlots), int(st.Fragments)
}

// Close stops serving and releases the disk. It also stops the store's
// background readahead worker — without this, every server restart
// (the chaos harness does hundreds per run) leaked one goroutine parked
// on the prefetch queue forever.
func (s *Server) Close() error {
	var err error
	if s.tcp != nil {
		err = s.tcp.Close()
	}
	s.store.Close()
	if cerr := s.d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) String() string {
	return fmt.Sprintf("swarm.Server(%s)", s.Addr())
}
