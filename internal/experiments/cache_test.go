package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/workload"
)

// memoScale keeps the memo test's two mix evaluations to a few million
// simulated cycles.
func memoScale() Scale {
	return Scale{
		Slice:         20_000,
		LittleDivisor: 4,
		SymbiosCycles: 80_000,
		WarmupCycles:  40_000,
		CalibWarmup:   40_000,
		CalibMeasure:  20_000,
		SampleRounds:  1,
		MaxSamples:    2,
		Seed:          0x5010,
	}
}

// TestSoloMemo: two mixes sharing jobs, evaluated concurrently, calibrate
// each shared job once — the first two jobs of Jsb(4,2,2) and Jsb(6,3,3)
// are the same FP and MG at the same seed, on 2 and 3 contexts — and the
// shared rates equal an unmemoized core.SoloRates. ClearEvalCache drops
// the memo, so a second round recomputes every job.
func TestSoloMemo(t *testing.T) {
	ClearEvalCache()
	defer ClearEvalCache()
	var mu sync.Mutex
	runs := map[string]int{} // job name/ID → calibrations
	soloCalibrate = func(cfg arch.Config, jobs []*workload.Job, seeds []uint64, warmup, measure uint64) ([]float64, error) {
		mu.Lock()
		for _, j := range jobs {
			runs[fmt.Sprintf("%s/%d", j.Name(), j.ID)]++
		}
		mu.Unlock()
		return core.SoloRates(cfg, jobs, seeds, warmup, measure)
	}
	defer func() { soloCalibrate = core.SoloRates }()

	sc := memoScale()
	labels := []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}
	evalBoth := func() []*MixEval {
		evs := make([]*MixEval, len(labels))
		errs := make([]error, len(labels))
		var wg sync.WaitGroup
		for i, l := range labels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				evs[i], errs[i] = EvalMixCachedCtx(context.Background(), l, sc)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", labels[i], err)
			}
		}
		return evs
	}
	// FP/0 and MG/1 are shared; GCC/3 is not (Jsb(6,3,3)'s GCC is job 3,
	// Jsb(4,2,2)'s is job 2, a different stream seed and address space).
	want := map[string]int{"FP/0": 1, "MG/1": 1, "GCC/2": 1, "IS/3": 1, "WAVE/2": 1, "GCC/3": 1, "GCC/4": 1, "GO/5": 1}
	check := func(round int) {
		t.Helper()
		if len(runs) != len(want) {
			t.Errorf("round %d: calibrated %v, want %v", round, runs, want)
		}
		for k, n := range want {
			if runs[k] != n*round {
				t.Errorf("round %d: %s calibrated %d times, want %d", round, k, runs[k], n*round)
			}
		}
	}
	evs := evalBoth()
	check(1)

	for i, ev := range evs {
		mix := workload.MustMix(labels[i])
		jobs, seeds, err := buildJobs(mix, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.SoloRates(arch.Default21264(mix.SMTLevel), jobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(direct) != fmt.Sprint(ev.Solo) {
			t.Errorf("%s: memoized solo rates %v, direct %v", labels[i], ev.Solo, direct)
		}
	}

	// Cached evaluations do not recalibrate; a cleared cache does.
	evalBoth()
	check(1)
	ClearEvalCache()
	evalBoth()
	check(2)
}
