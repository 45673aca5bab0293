package core

import (
	"testing"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/workload"
)

// TestSoloRatesContextsInvariant: a solo rate is a property of the job,
// not of the machine size it is calibrated for. For every registered
// benchmark and every SMT level k that can hold it, SoloRates on
// Default21264(k) equals a direct run of the job alone on a k-context core
// — the rates the kernel produced before SoloRates sized its calibration
// cores to the job — which is what lets experiments share one calibration
// per job across mixes of different SMT levels.
func TestSoloRatesContextsInvariant(t *testing.T) {
	const warmup, measure = 20_000, 20_000
	const maxContexts = 8
	direct := func(cfg arch.Config, spec workload.Spec, id int, seed uint64) []float64 {
		t.Helper()
		j := workload.MustNewJob(spec, id, seed)
		c, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < j.Threads(); th++ {
			c.Attach(th, j.Source(th), 0, j.Gate(), th)
		}
		c.Run(warmup)
		before := make([]uint64, j.Threads())
		for th := range before {
			before[th] = c.ThreadCommitted(th)
		}
		c.Run(measure)
		rates := make([]float64, j.Threads())
		for th := range rates {
			rates[th] = float64(c.ThreadCommitted(th)-before[th]) / measure
		}
		return rates
	}
	for i, name := range workload.Names() {
		spec := workload.MustLookup(name)
		seed := uint64(100 + i)
		job := workload.MustNewJob(spec, i, seed)
		for k := spec.Threads; k <= maxContexts; k++ {
			cfg := arch.Default21264(k)
			got, err := SoloRates(cfg, []*workload.Job{job}, []uint64{seed}, warmup, measure)
			if err != nil {
				t.Fatalf("%s on %d contexts: %v", name, k, err)
			}
			want := direct(cfg, spec, i, seed)
			if len(got) != len(want) {
				t.Fatalf("%s on %d contexts: %d rates, want %d", name, k, len(got), len(want))
			}
			for th := range want {
				if got[th] != want[th] {
					t.Errorf("%s thread %d on %d contexts: SoloRates %v, direct run %v", name, th, k, got[th], want[th])
				}
			}
		}
	}
	job := workload.MustNewJob(workload.MustLookup("ARRAY"), 0, 1)
	if _, err := SoloRates(arch.Default21264(1), []*workload.Job{job}, []uint64{1}, warmup, measure); err == nil {
		t.Error("a 2-thread job calibrated on a 1-context machine")
	}
}
