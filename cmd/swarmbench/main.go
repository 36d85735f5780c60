// Command swarmbench regenerates the paper's evaluation (§3.4): Figure 3
// (raw write bandwidth), Figure 4 (useful write throughput), Figure 5
// (Modified Andrew Benchmark vs ext2fs), the in-text cold-read numbers,
// and the design ablations and beyond-paper figures registered in
// internal/bench. See DESIGN.md §4 and EXPERIMENTS.md.
//
// The harness runs the real Swarm stack under the 1999 hardware model;
// -scale trades fidelity at the margins for wall-clock time (results are
// normalized back to 1999-equivalents). -scale 1 with -blocks 10000 is
// the paper's exact workload and takes several minutes; the default
// (-scale 10, -blocks 10000) finishes the paper's figures in a few
// minutes with nearly identical numbers. -json also writes each
// figure's tables to BENCH_<name>.json in the current directory.
//
// Usage:
//
//	swarmbench -fig all -json
//	swarmbench -fig 3 -scale 1 -blocks 10000
//	swarmbench -fig 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"swarm/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "which figure to regenerate: "+strings.Join(bench.Names(), ", "))
		scale   = flag.Float64("scale", 10, "hardware speedup factor (1 = real-time 1999 rates)")
		blocks  = flag.Int("blocks", 10000, "blocks per client for write benchmarks (paper: 10000)")
		jsonOut = flag.Bool("json", false, "also write machine-readable results (BENCH_<name>.json)")
		verbose = flag.Bool("v", false, "print progress")
	)
	flag.Parse()
	opts := bench.Options{Scale: *scale, Blocks: *blocks}
	if *verbose {
		opts.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	if err := run(*fig, opts, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "swarmbench:", err)
		os.Exit(1)
	}
}

func run(name string, opts bench.Options, jsonOut bool) error {
	figs, err := bench.Select(name)
	if err != nil {
		return err
	}
	for _, f := range figs {
		tables, err := f.Run(opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", f.Name, err)
		}
		bench.Print(os.Stdout, tables)
		if jsonOut {
			path, err := bench.WriteJSON(".", f, tables)
			if err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	return nil
}
