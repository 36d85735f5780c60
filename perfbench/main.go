// Command perfbench is the end-to-end Swarm benchmark: Sting over RS(4,2)
// stripes on six FileDisk servers reached over loopback TCP, driven by
// two clients. See README.md for the workloads and metrics.
//
//	perfbench -workload random_read -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it runs the untraced stack (the public swarm API) and
// prints the end-to-end metrics. With -trace 1 it also runs the same
// workload on a stack with decorators between the layers and prints the
// per-layer metrics and the tracing overhead. The last line of standard
// output is a JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	w         workload
	seed      int64
	seconds   int
	trace     bool
	workdir   string
	scale     float64 // multiplies dataset sizes and budgets; tests shrink them
	setupReps int     // cluster bring-ups timed for setup_s
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: bulk_write, random_read, mixed or degraded_read")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "length of the timed phase (bulk_write: sets its byte budget)")
		trace   = flag.Int("trace", 0, "1: add a traced run and report per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for disks and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, scale: 1, setupReps: 7}
	out, err := benchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmark runs the untraced stack and, when asked, the traced one, and
// returns the result line.
func benchmark(o options) (*output, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("create work dir: %w", err)
	}
	base := takeBaseline()
	plain, err := runOnce(o, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.w.name, err)
	}
	if err := base.check(); err != nil {
		return nil, fmt.Errorf("%s: after the untraced run: %w", o.w.name, err)
	}
	e2e := endToEnd(plain)
	printEndToEnd(os.Stdout, plain, e2e)
	res := plain
	metrics := e2e
	if o.trace {
		tr := newTracer()
		traced, err := runOnce(o, tr)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", o.w.name, err)
		}
		if err := base.check(); err != nil {
			return nil, fmt.Errorf("%s: after the traced run: %w", o.w.name, err)
		}
		spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.csv", o.w.name, o.seed))
		if err := tr.writeSpans(spanFile); err != nil {
			return nil, err
		}
		sp := analyzeSpans(tr.snapshotSpans())
		metrics = perLayer(traced, sp, e2e, plain.goodputMBs())
		printPerLayer(os.Stdout, traced, sp, e2e, metrics, spanFile)
		res = traced
	}
	out := &output{
		Correct:   res.correct() && plain.correct(),
		Attempted: res.s.attempted,
		Failed:    res.s.failed,
		Metrics:   make(map[string]metricValue, len(metrics)),
	}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out, nil
}

// baseline is the process's goroutine and file-descriptor count before
// any cluster exists; both must return to it after each run.
type baseline struct{ goroutines, fds int }

// takeBaseline starts the runtime's network poller first (its epoll and
// wake-up descriptors live for the whole process) and then counts.
func takeBaseline() baseline {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	return baseline{runtime.NumGoroutine(), countFDs()}
}

func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

func (b baseline) check() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), countFDs()
		if g <= b.goroutines && f <= b.fds {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak: %d goroutines and %d fds, baseline %d and %d", g, f, b.goroutines, b.fds)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
