package bench

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// RunMeta stamps every BENCH_*.json with enough provenance to
// reconstruct the perf trajectory across PRs: which revision produced
// the numbers, when, and on how wide a machine. Without it a directory
// of benchmark files is just unordered numbers.
type RunMeta struct {
	Revision   string `json:"revision"` // git short hash, "-dirty" with uncommitted changes ("unknown" outside a checkout)
	Generated  string `json:"generated"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// NewRunMeta collects the current run's provenance. The git lookup is
// best-effort: benchmarks must not fail because they ran from a
// tarball.
func NewRunMeta() RunMeta {
	m := RunMeta{
		Revision:   "unknown",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			m.Revision = rev
		}
		// Numbers from uncommitted changes are not the revision's.
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			m.Revision += "-dirty"
		}
	}
	return m
}
