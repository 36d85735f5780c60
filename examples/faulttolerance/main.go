// Faulttolerance: write a file across TCP storage servers, kill one
// server process, and read everything back — the client reconstructs the
// dead server's fragments from the stripe parity, transparently. Servers
// never participate in reconstruction (§2.3.3 of the paper).
package main

import (
	"bytes"
	"fmt"
	"log"

	"swarm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Four real TCP servers (what cmd/swarmd runs, in-process here).
	var servers []*swarm.Server
	var addrs []string
	for i := 0; i < 4; i++ {
		s, err := swarm.NewServer(swarm.ServerOptions{
			DiskBytes:    64 << 20,
			FragmentSize: 256 << 10,
			Listen:       "127.0.0.1:0",
		})
		if err != nil {
			return err
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		fmt.Printf("server %d listening on %s\n", i+1, s.Addr())
	}

	client, err := swarm.ConnectAddrs(1, addrs, swarm.ClientOptions{FragmentSize: 256 << 10})
	if err != nil {
		return err
	}
	defer client.Close()

	// Write a megabyte of blocks: the log stripes them with rotating
	// parity, so every fragment is recoverable from its stripe.
	payload := bytes.Repeat([]byte("swarm tolerates server failures. "), 128)
	var blocks []swarm.BlockAddr
	for i := 0; i < 256; i++ {
		addr, err := client.Log().AppendBlock(7, payload, nil)
		if err != nil {
			return err
		}
		blocks = append(blocks, addr)
	}
	if err := client.Sync(); err != nil {
		return err
	}
	l := client.Log()
	fmt.Printf("wrote %d blocks (%d KB) across %d servers\n",
		len(blocks), len(blocks)*len(payload)/1024, len(servers))

	// Kill a server. Hard. Mid-cluster.
	victim := 2
	if err := servers[victim].Close(); err != nil {
		return err
	}
	fmt.Printf("server %d killed\n", victim+1)

	// Read everything back: blocks on the dead server are rebuilt by
	// XORing the same bytes of the surviving members of their stripes.
	// The client finds the stripe by broadcasting for neighbouring
	// fragments — Swarm is self-hosting, there is no metadata service to
	// consult.
	for i, addr := range blocks {
		got, err := l.Read(addr, 0, uint32(len(payload)))
		if err != nil {
			return fmt.Errorf("block %d unreadable after failure: %w", i, err)
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("block %d corrupted after reconstruction", i)
		}
	}
	st := l.Stats()
	fmt.Printf("all %d blocks read back intact (%d reconstructions, %d of them block ranges)\n",
		len(blocks), st.Reconstructions, st.RangeReconstructions)

	// Replace the dead server with a fresh, empty one on the same
	// address and rebuild: the client reconstructs every fragment that
	// belongs there and stores it back, restoring full redundancy.
	replacement, err := swarm.NewServer(swarm.ServerOptions{
		DiskBytes:    64 << 20,
		FragmentSize: 256 << 10,
		Listen:       addrs[victim],
	})
	if err != nil {
		return err
	}
	defer replacement.Close()
	fmt.Printf("replacement server started on %s\n", addrs[victim])

	rebuilt, err := client.RebuildServer(swarm.ServerID(victim + 1))
	if err != nil {
		return err
	}
	_, total, free, frags := replacement.Stats()
	fmt.Printf("rebuilt %d fragments (replacement now holds %d fragments, %d/%d slots used)\n",
		rebuilt, frags, total-free, total)

	// Redundancy is back: the cluster again tolerates any single failure.
	for _, s := range l.Usage().Stripes() {
		if u, ok := l.Usage().Get(s); ok && u.Closed {
			if err := l.VerifyStripe(s); err != nil {
				return fmt.Errorf("stripe %d after rebuild: %w", s, err)
			}
		}
	}
	fmt.Println("all stripe parity verified after rebuild")
	return nil
}
