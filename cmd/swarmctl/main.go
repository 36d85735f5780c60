// Command swarmctl is the cluster/client CLI: inspect servers, store and
// fetch raw log blocks, and verify stripes against running swarmd
// processes.
//
// Usage:
//
//	swarmctl -servers host:7700,host:7701 ping
//	swarmctl -servers ... stat
//	swarmctl -servers ... -client 1 put <file>     # prints the block address
//	swarmctl -servers ... -client 1 get <fid> <off> <len>
//	swarmctl -servers ... -client 1 list
//	swarmctl -servers ... -client 1 verify         # verify all stripe parity
//	swarmctl -servers ... -client 1 rebuild <n>    # rebuild replaced server n (1-based)
//	swarmctl -servers ... -client 1 health         # per-server circuit state and degraded-write counters
//	swarmctl -servers ... -client 1 join <addr>    # admit a new server to the cluster
//	swarmctl -servers ... -client 1 drain <n> [remove]  # migrate this client's fragments off server n
//	swarmctl -servers ... -client 1 status         # placement epoch, member states, rebalance counters
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"swarm"
	"swarm/internal/core"
	"swarm/internal/server"
	"swarm/internal/transport"
	"swarm/internal/wire"
)

func main() {
	var (
		servers = flag.String("servers", "127.0.0.1:7700", "comma-separated storage server addresses (cluster order)")
		client  = flag.Uint("client", 1, "client ID (log owner)")
		frag    = flag.Int("fragsize", 1<<20, "fragment size (must match the cluster)")
		parity  = flag.Int("parity", 0, "parity shards per stripe m (0 = cluster default of 1)")
		codec   = flag.String("codec", "", "erasure codec for new stripes: xor or rs (default: xor for m<=1, rs otherwise)")
		width   = flag.Int("width", 0, "stripe width including parity (0 = all listed servers; set it narrower to leave room for drains)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: swarmctl [flags] ping|stat|put|get|list|verify|rebuild|health|join|drain|status ...")
		os.Exit(2)
	}
	opts := swarm.ClientOptions{FragmentSize: *frag, ParityShards: *parity, Codec: *codec, Width: *width}
	if err := run(strings.Split(*servers, ","), wire.ClientID(*client), opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "swarmctl:", err)
		os.Exit(1)
	}
}

func dialAll(addrs []string, client wire.ClientID) ([]transport.ServerConn, error) {
	conns := make([]transport.ServerConn, 0, len(addrs))
	for i, addr := range addrs {
		sc, err := transport.DialTCPOpts(wire.ServerID(i+1), strings.TrimSpace(addr), client, transport.TCPOptions{})
		if err != nil {
			return nil, err
		}
		conns = append(conns, sc)
	}
	return conns, nil
}

func run(addrs []string, client wire.ClientID, opts swarm.ClientOptions, args []string) error {
	cmd := args[0]
	switch cmd {
	case "ping", "stat":
		conns, err := dialAll(addrs, client)
		if err != nil {
			return err
		}
		for i, sc := range conns {
			defer sc.Close()
			if cmd == "ping" {
				if err := sc.Ping(); err != nil {
					fmt.Printf("server %d (%s): DOWN (%v)\n", i+1, addrs[i], err)
					continue
				}
				fmt.Printf("server %d (%s): ok\n", i+1, addrs[i])
				continue
			}
			st, err := sc.Stat()
			if err != nil {
				fmt.Printf("server %d (%s): error: %v\n", i+1, addrs[i], err)
				continue
			}
			// A slot is FragmentSize of capacity: "used" counts the
			// capacity held, fragmentation included, and "free" the
			// full-size fragments that still fit. "held" is the space
			// extents hold, to the unit.
			unit := server.UnitSize(int(st.FragmentSize))
			fmt.Printf("server %d (%s): %d/%d slots used (a slot is %d KB of capacity), %d fragments in %d KB units, %d KB held\n",
				i+1, addrs[i], st.TotalSlots-st.FreeSlots, st.TotalSlots, st.FragmentSize>>10,
				st.Fragments, unit>>10, int(st.UnitsHeld)*unit>>10)
			if st.Stores > 0 {
				coalesced := st.SyncRequests - st.Syncs
				avg := time.Duration(st.StoreNanos / st.Stores)
				fmt.Printf("  commit path: %d stores, %.2f fsyncs/store (%d coalesced of %d barriers), avg store latency %v\n",
					st.Stores, float64(st.Syncs)/float64(st.Stores), coalesced, st.SyncRequests,
					avg.Round(time.Microsecond))
			}
			if reads := st.ReadHits + st.ReadMisses; reads > 0 {
				fmt.Printf("  read path: %d reads, %.1f%% cache hits, %d readahead loads, %d MB served from cache / %d MB from disk, %d MB resident\n",
					reads, 100*float64(st.ReadHits)/float64(reads), st.ReadaheadLoads,
					st.ReadBytesCached>>20, st.ReadBytesDisk>>20, st.ReadCacheBytes>>20)
			}
			for _, tn := range st.Tenants {
				name := fmt.Sprintf("client %d", tn.Client)
				if tn.Client == 0 {
					name = "anonymous"
				}
				fmt.Printf("  tenant %s: weight %d, %d ops / %d MB served, %d shed, %d queued (%d KB), p50 %v p99 %v\n",
					name, tn.Weight, tn.Ops, tn.Bytes>>20, tn.Sheds, tn.Queued, tn.QueuedBytes>>10,
					time.Duration(tn.P50Micros)*time.Microsecond,
					time.Duration(tn.P99Micros)*time.Microsecond)
			}
		}
		return nil

	case "list":
		conns, err := dialAll(addrs, client)
		if err != nil {
			return err
		}
		for i, sc := range conns {
			defer sc.Close()
			fids, err := sc.List(client)
			if err != nil {
				return err
			}
			fmt.Printf("server %d (%s): %d fragments", i+1, addrs[i], len(fids))
			for _, fid := range fids {
				fmt.Printf(" %v", fid)
			}
			fmt.Println()
		}
		return nil

	case "put":
		if len(args) < 2 {
			return fmt.Errorf("put needs a file argument")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		if len(data) > c.Log().MaxBlockSize() {
			return fmt.Errorf("file is %d bytes; max block is %d", len(data), c.Log().MaxBlockSize())
		}
		addr, err := c.Log().AppendBlock(7, data, []byte(args[1]))
		if err != nil {
			return err
		}
		if err := c.Sync(); err != nil {
			return err
		}
		fmt.Printf("stored %d bytes at %v\n", len(data), addr)
		return nil

	case "get":
		if len(args) < 4 {
			return fmt.Errorf("get needs <fid> <off> <len> (fid as client/seq)")
		}
		fid, err := parseFID(args[1])
		if err != nil {
			return err
		}
		off, err := strconv.ParseUint(args[2], 10, 32)
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(args[3], 10, 32)
		if err != nil {
			return err
		}
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		data, err := c.Log().Read(core.BlockAddr{FID: fid, Off: uint32(off)}, 0, uint32(n))
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil

	case "verify":
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		l := c.Log()
		bad := 0
		stripes := l.Usage().Stripes()
		for _, s := range stripes {
			u, _ := l.Usage().Get(s)
			if !u.Closed {
				continue
			}
			if err := l.VerifyStripe(s); err != nil {
				fmt.Printf("stripe %d: BAD: %v\n", s, err)
				bad++
			} else {
				fmt.Printf("stripe %d: ok (%.0f%% live)\n", s, u.Utilization()*100)
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d bad stripes", bad)
		}
		fmt.Printf("%d stripes verified\n", len(stripes))
		return nil

	case "health":
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		// Exercise every server once so the printed circuit state reflects
		// current reachability, not just dial-time state.
		for _, sc := range c.Log().Servers() {
			sc.Ping()
		}
		for i, h := range c.Health() {
			addr := ""
			if i < len(addrs) {
				addr = strings.TrimSpace(addrs[i])
			}
			fmt.Printf("server %d (%s): circuit %s, %d ops, %d failures (%d consecutive), %d retries, %d busy sheds, %d trips, %d fast-fails\n",
				h.Server, addr, h.State, h.Ops, h.Failures, h.ConsecutiveFailures, h.Retries, h.Busy, h.Trips, h.FastFails)
		}
		st := c.Log().Stats()
		fmt.Printf("log: %d degraded writes in %d stripes, %d preallocs skipped, %d deletes deferred\n",
			st.DegradedWrites, st.DegradedStripes, st.DegradedPreallocs, st.DeferredDeletes)
		l := c.Log()
		if code := l.Codec(); code != nil {
			fmt.Printf("erasure: codec %s, %d parity shards per %d-wide stripe, spare redundancy %d (failures to data loss)\n",
				code.Kind(), l.ParityShards(), l.Width(), st.MinSpareRedundancy)
		} else {
			fmt.Println("erasure: parity disabled (no redundancy)")
		}
		return nil

	case "rebuild":
		if len(args) < 2 {
			return fmt.Errorf("rebuild needs a server number (1-based cluster position)")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 || n > len(addrs) {
			return fmt.Errorf("bad server number %q", args[1])
		}
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		rebuilt, err := c.RebuildServer(wire.ServerID(n))
		if err != nil {
			return err
		}
		fmt.Printf("rebuilt %d fragments on server %d\n", rebuilt, n)
		return nil

	case "join":
		if len(args) < 2 {
			return fmt.Errorf("join needs the new server's address")
		}
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		id, err := c.AddServer(strings.TrimSpace(args[1]))
		if err != nil {
			return err
		}
		fmt.Printf("server %d (%s) joined at placement epoch %d\n", id, args[1], c.Placement().Epoch)
		return nil

	case "drain":
		if len(args) < 2 {
			return fmt.Errorf("drain needs a server number (1-based cluster position)")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			return fmt.Errorf("bad server number %q", args[1])
		}
		remove := len(args) > 2 && args[2] == "remove"
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		if err := c.DrainServer(wire.ServerID(n)); err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- c.WaitRebalance(wire.ServerID(n)) }()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case err := <-done:
				if err != nil {
					return err
				}
				st, _ := c.RebalanceStats(wire.ServerID(n))
				fmt.Printf("drained server %d: %d fragments (%d KB) moved, %d reconstructed, %d passes\n",
					n, st.Moved, st.Bytes>>10, st.Reconstructed, st.Passes)
				if remove {
					if err := c.RemoveServer(wire.ServerID(n)); err != nil {
						return err
					}
					fmt.Printf("server %d removed at placement epoch %d\n", n, c.Placement().Epoch)
				}
				return nil
			case <-tick.C:
				if st, ok := c.RebalanceStats(wire.ServerID(n)); ok {
					fmt.Printf("  moved %d (%d KB), %d reconstructed, %d skipped\n",
						st.Moved, st.Bytes>>10, st.Reconstructed, st.Skipped)
				}
			}
		}

	case "status":
		c, err := swarm.ConnectAddrs(client, addrs, opts)
		if err != nil {
			return err
		}
		defer c.Close()
		p := c.Placement()
		fmt.Printf("placement epoch %d, %d members:\n", p.Epoch, len(p.Members))
		for _, m := range p.Members {
			addr := ""
			if int(m.ID) <= len(addrs) {
				addr = " " + strings.TrimSpace(addrs[m.ID-1])
			}
			fmt.Printf("  server %d%s: %s\n", m.ID, addr, m.State)
		}
		st := c.Log().Stats()
		fmt.Printf("rebalance: %d fragments (%d KB) migrated this session\n",
			st.RebalancedFragments, st.RebalancedBytes>>10)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func parseFID(s string) (wire.FID, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, fmt.Errorf("fid must be client/seq, got %q", s)
	}
	c, err := strconv.ParseUint(parts[0], 10, 24)
	if err != nil {
		return 0, err
	}
	seq, err := strconv.ParseUint(parts[1], 10, 40)
	if err != nil {
		return 0, err
	}
	return wire.MakeFID(wire.ClientID(c), seq), nil
}
