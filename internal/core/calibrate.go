package core

import (
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/parallel"
	"symbios/internal/workload"
)

// soloBatch is how many calibration cores one worker drives as a single
// cpu.Batch work item. Batching only regroups the work — each job still
// runs alone on its own fresh core for the same cycles, so the measured
// rates are bit-identical to the one-job-per-work-item fan-out.
const soloBatch = 4

// SoloRates measures each task's natural offer rate — the single-threaded
// IPC that forms the weighted-speedup denominator. Each job is run alone on
// a fresh machine (all of a multithreaded job's threads together, per the
// Section 7 extension: "the issue rate of the job running alone, with no
// other jobs in the coschedule"), for warmup cycles to fill the caches and
// then measure cycles of observation.
//
// The calibration jobs are rebuilt from the originals' specs and seeds so
// the mix's own progress is untouched; streams are pure functions, so the
// rebuilt job replays identically. Each job runs on a core with exactly as
// many contexts as it has threads: the kernel reads cfg.Contexts only to
// size its per-context arrays, so the rates do not depend on it, and a job
// calibrates identically for every SMT level that can hold it.
func SoloRates(cfg arch.Config, jobs []*workload.Job, seeds []uint64, warmup, measure uint64) ([]float64, error) {
	if len(jobs) != len(seeds) {
		return nil, fmt.Errorf("core: %d jobs but %d seeds", len(jobs), len(seeds))
	}
	if measure == 0 {
		return nil, fmt.Errorf("core: zero measurement interval")
	}
	// Each calibration runs its job alone on a fresh core; the cores are
	// independent, so groups of them advance together as one cpu.Batch and
	// the groups fan out across workers. Per-job rate groups are flattened
	// in job order, identical to the serial sweep.
	groups := chunkRanges(len(jobs), soloBatch)
	perGroup, err := parallel.Map(groups, parallel.Options{}, func(_ int, g [2]int) ([][]float64, error) {
		return soloGroup(cfg, jobs[g[0]:g[1]], seeds[g[0]:g[1]], warmup, measure)
	})
	if err != nil {
		return nil, err
	}
	var rates []float64
	for _, group := range perGroup {
		for _, solo := range group {
			rates = append(rates, solo...)
		}
	}
	return rates, nil
}

// chunkRanges splits [0,n) into half-open [lo,hi) ranges of at most size.
func chunkRanges(n, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// soloGroup calibrates a group of jobs on one cpu.Batch: every job gets
// its own core, the batch advances them all through warmup and then the
// measurement window.
func soloGroup(cfg arch.Config, jobs []*workload.Job, seeds []uint64, warmup, measure uint64) ([][]float64, error) {
	var batch cpu.Batch
	cores := make([]*cpu.Core, len(jobs))
	rebuilt := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		if j.Spec.Threads > cfg.Contexts {
			return nil, fmt.Errorf("core: calibrating %s: %d threads exceed %d contexts",
				j.Name(), j.Spec.Threads, cfg.Contexts)
		}
		r, err := workload.NewJob(j.Spec, j.ID, seeds[i])
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s: %w", j.Name(), err)
		}
		jcfg := cfg
		jcfg.Contexts = r.Threads()
		c, err := cpu.New(jcfg)
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s: %w", j.Name(), err)
		}
		for t := 0; t < r.Threads(); t++ {
			c.Attach(t, r.Source(t), 0, r.Gate(), t)
		}
		cores[i], rebuilt[i] = c, r
		batch.Add(c)
	}
	batch.Run(warmup)
	before := make([][]uint64, len(jobs))
	for i, c := range cores {
		before[i] = make([]uint64, rebuilt[i].Threads())
		for t := range before[i] {
			before[i][t] = c.ThreadCommitted(t)
		}
	}
	batch.Run(measure)
	out := make([][]float64, len(jobs))
	for i, c := range cores {
		rates := make([]float64, rebuilt[i].Threads())
		for t := range rates {
			delta := c.ThreadCommitted(t) - before[i][t]
			rates[t] = float64(delta) / float64(measure)
			if rates[t] <= 0 {
				return nil, fmt.Errorf("core: calibrating %s: thread %d made no progress alone",
					jobs[i].Name(), t)
			}
		}
		out[i] = rates
	}
	return out, nil
}
