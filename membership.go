package swarm

import (
	"context"
	"fmt"

	"swarm/internal/rebalance"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

// Fleet management: a connected client can grow and shrink its cluster
// without restarting. AddServer admits a new storage server (new
// stripes start placing fragments there immediately); DrainServer
// excludes one from new placement and starts a background rebalance
// that migrates its fragments to their new homes; RemoveServer retires
// it once empty. Stripes written before, during, and after membership
// changes all stay readable — each fragment header records the
// placement epoch that wrote it.

// drainJob tracks one background rebalance started by DrainServer.
type drainJob struct {
	reb    *rebalance.Rebalancer
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// AddServer dials a new storage server and admits it to the cluster.
// The server gets the next unused ID (IDs are never reused, even after
// removals) and new stripes may place fragments on it from now on.
// Existing stripes are not reshuffled. When the client was connected
// with Protect, an ACL covering this client is created on the new
// server; access previously granted to other clients via GrantAccess
// must be granted again for the new server to enforce it.
func (c *Client) AddServer(addr string) (ServerID, error) {
	id := c.log.NextServerID()
	sc, err := dialResilient(id, addr, c.id, c.opts)
	if err != nil {
		return 0, err
	}
	if err := c.admit(sc); err != nil {
		sc.Close()
		return 0, err
	}
	return id, nil
}

// AddLocalServer admits an in-process server (the counterpart of
// Cluster.Connect's direct wiring) and returns its assigned ID.
func (c *Client) AddLocalServer(s *Server) (ServerID, error) {
	id := c.log.NextServerID()
	sc := transport.NewLocal(id, s.store, c.id)
	if err := c.admit(sc); err != nil {
		return 0, err
	}
	return id, nil
}

func (c *Client) admit(sc transport.ServerConn) error {
	var aid wire.AID
	if c.opts.Protect {
		var err error
		aid, err = sc.ACLCreate([]ClientID{c.id})
		if err != nil {
			return fmt.Errorf("create ACL on server %d: %w", sc.ID(), err)
		}
	}
	_, err := c.log.AddServer(sc, aid)
	return err
}

// DrainServer excludes a server from new placement and starts a
// background rebalance migrating its fragments to their new homes. The
// server keeps serving reads throughout. Poll with RebalanceStats,
// block with WaitRebalance, finish with RemoveServer. Draining more
// servers than parity can absorb is refused when it would leave fewer
// active servers than the stripe width.
func (c *Client) DrainServer(id ServerID, opts ...RebalanceOptions) error {
	c.mu.Lock()
	if job, ok := c.drains[id]; ok {
		select {
		case <-job.done:
			// Previous drain finished (or failed); start a fresh one.
		default:
			c.mu.Unlock()
			return fmt.Errorf("swarm: server %d is already draining", id)
		}
	}
	c.mu.Unlock()
	if _, err := c.log.DrainServer(id); err != nil {
		return err
	}
	var o RebalanceOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &drainJob{
		reb:    rebalance.New(c.log, id, o),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.drains == nil {
		c.drains = make(map[ServerID]*drainJob)
	}
	c.drains[id] = job
	c.mu.Unlock()
	go func() {
		job.err = job.reb.Run(ctx)
		close(job.done)
	}()
	return nil
}

// WaitRebalance blocks until the background drain of server id
// finishes, returning its outcome. Errors when no drain was started.
func (c *Client) WaitRebalance(id ServerID) error {
	c.mu.Lock()
	job, ok := c.drains[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("swarm: no drain in progress for server %d", id)
	}
	<-job.done
	return job.err
}

// RebalanceStats reports the progress of server id's drain. The second
// result is false when no drain was ever started for it.
func (c *Client) RebalanceStats(id ServerID) (RebalanceStats, bool) {
	c.mu.Lock()
	job, ok := c.drains[id]
	c.mu.Unlock()
	if !ok {
		return RebalanceStats{}, false
	}
	return job.reb.Stats(), true
}

// RemoveServer retires a drained server: it leaves the placement map,
// its connection is closed, and its ID is never reused. The server must
// be draining and hold none of this client's fragments (run DrainServer
// and WaitRebalance first); an unreachable server that has been drained
// can be removed on the strength of the completed migration.
func (c *Client) RemoveServer(id ServerID) error {
	c.mu.Lock()
	if job, ok := c.drains[id]; ok {
		select {
		case <-job.done:
		default:
			c.mu.Unlock()
			return fmt.Errorf("swarm: server %d is still rebalancing; WaitRebalance first", id)
		}
	}
	c.mu.Unlock()
	sc := c.log.ServerConn(id)
	if _, err := c.log.RemoveServer(id); err != nil {
		return err
	}
	sc.Close()
	c.mu.Lock()
	delete(c.drains, id)
	c.mu.Unlock()
	return nil
}

// Placement returns a snapshot of the cluster's placement map: the
// current epoch and each member's state (active or draining) in join
// order.
func (c *Client) Placement() PlacementInfo { return c.log.Placement() }

// stopDrains cancels any running background rebalances (Close path).
func (c *Client) stopDrains() {
	c.mu.Lock()
	jobs := make([]*drainJob, 0, len(c.drains))
	for _, job := range c.drains {
		jobs = append(jobs, job)
	}
	c.mu.Unlock()
	for _, job := range jobs {
		job.cancel()
		<-job.done
	}
}
