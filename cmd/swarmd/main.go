// Command swarmd runs one Swarm storage server: a fragment repository on
// a local disk, serving the wire protocol over TCP. Start several swarmd
// processes and point clients (swarmctl, stingfs, or the swarm package)
// at them.
//
// Usage:
//
//	swarmd -listen :7701 -disk /var/lib/swarm/s1.img -size 1073741824
//	swarmd -listen :7702 -mem -size 268435456
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"swarm"
	"swarm/internal/server"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7700", "TCP address to serve the wire protocol on")
		diskPath  = flag.String("disk", "", "backing disk file (created if absent); empty with -mem for memory")
		mem       = flag.Bool("mem", false, "use an in-memory disk (data lost on exit)")
		size      = flag.Int64("size", 1<<30, "disk capacity in bytes")
		fragSize  = flag.Int("fragsize", 1<<20, "fragment slot size in bytes (must match the cluster)")
		reuse     = flag.Bool("reuse", false, "reopen an existing formatted disk instead of formatting")
		readCache = flag.Int64("read-cache", 0,
			"read cache size in bytes (0 = default 64 MB, negative = disabled)")
		readahead = flag.Int("readahead", 0,
			"fragments prefetched per cache hit (0 = default 4, negative = disabled)")
		qos = flag.Bool("qos", false,
			"enable the multi-tenant weighted-fair scheduler (off = FIFO; see README on multi-tenant tuning)")
		qosWeights = flag.String("qos-weights", "",
			`per-tenant fair-share weights, e.g. "default=1,7=4" (implies -qos)`)
		qosQuota = flag.String("qos-quota", "",
			`per-tenant quotas as client=byterate[:oprate], e.g. "7=8M:200,default=1M" (implies -qos)`)
	)
	flag.Parse()
	if err := run(*listen, *diskPath, *mem, *size, *fragSize, *reuse, *readCache, *readahead,
		*qos, *qosWeights, *qosQuota); err != nil {
		fmt.Fprintln(os.Stderr, "swarmd:", err)
		os.Exit(1)
	}
}

func run(listen, diskPath string, mem bool, size int64, fragSize int, reuse bool, readCache int64, readahead int, qos bool, qosWeights, qosQuota string) error {
	if !mem && diskPath == "" {
		return fmt.Errorf("need -disk PATH or -mem")
	}
	if mem {
		diskPath = ""
	}
	var qosCfg *server.QoSConfig
	if qos || qosWeights != "" || qosQuota != "" {
		cfg, err := server.ParseQoSFlags(qosWeights, qosQuota)
		if err != nil {
			return err
		}
		qosCfg = &cfg
	}
	logger := log.New(os.Stderr, "swarmd: ", log.LstdFlags)
	srv, err := swarm.NewServer(swarm.ServerOptions{
		DiskPath:     diskPath,
		DiskBytes:    size,
		FragmentSize: fragSize,
		Listen:       listen,
		Logger:       logger,
		Reuse:        reuse,

		ReadCacheBytes:     readCache,
		ReadaheadFragments: readahead,
		QoS:                qosCfg,
	})
	if err != nil {
		return err
	}
	fragsz, total, free, frags := srv.Stats()
	logger.Printf("serving on %s: %d slots of %d KB capacity in %d KB units (%d free, %d fragments)",
		srv.Addr(), total, fragsz>>10, server.UnitSize(fragsz)>>10, free, frags)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
	return srv.Close()
}
