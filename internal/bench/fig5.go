package bench

import (
	"fmt"
	"time"

	"swarm/internal/core"
	"swarm/internal/disk"
	"swarm/internal/extfs"
	"swarm/internal/mab"
	"swarm/internal/model"
	"swarm/internal/service"
	"swarm/internal/sting"
	"swarm/internal/vfs"
)

// MABConfig parameterizes the Figure 5 comparison.
type MABConfig struct {
	// Scale speeds up the emulated hardware (results normalized back).
	Scale float64
}

// MABResult is one file system's Figure 5 outcome.
type MABResult struct {
	System         string
	Elapsed        time.Duration // normalized
	CPUUtilization float64
	Phases         [6]time.Duration // normalized
	Files          int
	Bytes          int64
}

// RunFigure5 runs the Modified Andrew Benchmark on Sting (one client, one
// storage server across the emulated network) and on extfs (an emulated
// local disk), the exact configuration of Figure 5.
func RunFigure5(cfg MABConfig) (stingRes, extRes MABResult, err error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	params := model.Paper1999().Scaled(cfg.Scale)
	wl := mab.Config{CompileNsPerByte: max(int(12000/cfg.Scale), 1)}

	stingRes, err = runStingMAB(params, wl, cfg)
	if err != nil {
		return stingRes, extRes, fmt.Errorf("sting MAB: %w", err)
	}
	extRes, err = runExtfsMAB(params, wl, cfg)
	if err != nil {
		return stingRes, extRes, fmt.Errorf("extfs MAB: %w", err)
	}
	return stingRes, extRes, nil
}

// runMAB sets up and runs the benchmark on fs, charging cpu, and
// normalizes the result back to 1999 time.
func runMAB(system string, fs vfs.FileSystem, cpu *model.CPU, wl mab.Config, scale float64) (MABResult, error) {
	wl.CPU = cpu
	if _, _, err := mab.Setup(fs, wl); err != nil {
		return MABResult{}, err
	}
	r, err := mab.Run(fs, wl)
	if err != nil {
		return MABResult{}, err
	}
	out := MABResult{
		System:         system,
		Elapsed:        time.Duration(float64(r.Total) * scale),
		CPUUtilization: r.CPUUtilization(),
		Files:          r.Files,
		Bytes:          r.Bytes,
	}
	for i, p := range r.Phases {
		out.Phases[i] = time.Duration(float64(p) * scale)
	}
	return out, nil
}

func runStingMAB(params model.HardwareParams, wl mab.Config, cfg MABConfig) (MABResult, error) {
	cluster, err := NewSimCluster(ClusterConfig{
		Servers:   1,
		DiskBytes: 512 << 20,
		Params:    params,
	})
	if err != nil {
		return MABResult{}, err
	}
	env := cluster.Client(1)
	log, rec, err := core.Open(core.Config{
		Client:       1,
		Servers:      env.Conns,
		Width:        1,
		CPU:          env.CPU,
		FragOverhead: params.ClientFragOverhead,
	})
	if err != nil {
		return MABResult{}, err
	}
	reg := service.NewRegistry(log)
	fs, err := sting.Mount(log, reg, rec, sting.Config{
		BlockSize:  blockSize,
		CacheBytes: 16 << 20, // "Swarm's poor read performance is masked by the client-side cache"
	})
	if err != nil {
		return MABResult{}, err
	}
	return runMAB("Sting (Swarm, 1 client + 1 server)", fs, env.CPU, wl, cfg.Scale)
}

func runExtfsMAB(params model.HardwareParams, wl mab.Config, cfg MABConfig) (MABResult, error) {
	sd := disk.NewSimDisk(disk.NewMemDisk(512<<20), nil, params)
	fs, err := extfs.Mkfs(sd, blockSize)
	if err != nil {
		return MABResult{}, err
	}
	// Classic ext2 consistency behaviour: metadata written through,
	// block-group data placement (see extfs.SetSyncMetadata).
	fs.SetSyncMetadata(true)
	return runMAB("ext2fs (local disk)", fs, model.NewCPU(nil, params.ClientCPU), wl, cfg.Scale)
}
