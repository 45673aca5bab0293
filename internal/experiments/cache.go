package experiments

import (
	"context"
	"fmt"
	"sync"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/workload"
)

// evalFlight is one memoized (and possibly in-flight) mix evaluation.
// Waiters block on done; ev/err are written exactly once, before done is
// closed.
type evalFlight struct {
	done chan struct{}
	ev   *MixEval
	err  error
}

// evalCache memoizes MixEval results within a process, with singleflight
// semantics: Figures 1 and 3 and the warmstart study are different views of
// the same underlying experiments (as in the paper), and the parallel
// drivers fan their mixes out concurrently — concurrent misses on one key
// must compute the evaluation exactly once, not race to store. Entries are
// deterministic functions of their key.
//
// soloCache memoizes single-job solo calibrations the same way, under the
// same lock. A solo rate belongs to the job, not to the mix it sits in, so
// mixes sharing a job at the same seed (Jsb(4,2,2) and Jsb(8,4,4) both open
// with the same jobs) calibrate it once.
var (
	evalMu    sync.Mutex
	evalCache = map[string]*evalFlight{}
	soloCache = map[soloKey]*soloFlight{}
)

// soloKey identifies one job's solo calibration: everything core.SoloRates
// reads for it. cfg has Contexts zeroed — SoloRates runs each job on a core
// sized to its own threads, so the rates do not depend on the SMT level.
type soloKey struct {
	cfg             arch.Config
	spec            workload.Spec
	id              int
	seed            uint64
	warmup, measure uint64
}

// soloFlight is one memoized (and possibly in-flight) job calibration: the
// job's per-thread rates. Written once, before done is closed.
type soloFlight struct {
	done  chan struct{}
	rates []float64
	err   error
}

// cacheKey identifies an evaluation.
func cacheKey(label string, sc Scale) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		label, sc.Slice, sc.LittleDivisor, sc.SymbiosCycles, sc.WarmupCycles,
		sc.CalibWarmup, sc.CalibMeasure, sc.SampleRounds, sc.MaxSamples, sc.Seed)
}

// EvalMixCached returns the memoized evaluation of a mix, computing it on
// first use. A concurrent second caller of the same key blocks until the
// first finishes and shares its result rather than recomputing.
func EvalMixCached(label string, sc Scale) (*MixEval, error) {
	return EvalMixCachedCtx(context.Background(), label, sc)
}

// EvalMixCachedCtx is EvalMixCached computing under the caller's context. If
// the computing caller's context aborts, joined waiters receive that abort
// error too; the failed entry is dropped, so a later caller recomputes under
// its own (presumably healthier) context.
func EvalMixCachedCtx(ctx context.Context, label string, sc Scale) (*MixEval, error) {
	key := cacheKey(label, sc)
	evalMu.Lock()
	if f, ok := evalCache[key]; ok {
		evalMu.Unlock()
		<-f.done
		return f.ev, f.err
	}
	f := &evalFlight{done: make(chan struct{})}
	evalCache[key] = f
	evalMu.Unlock()

	f.ev, f.err = EvalMixCtx(ctx, label, sc)
	close(f.done)
	if f.err != nil {
		// Do not cache failures: a later caller may run under conditions
		// that succeed (and joined waiters already got this attempt's
		// error).
		evalMu.Lock()
		if evalCache[key] == f {
			delete(evalCache, key)
		}
		evalMu.Unlock()
	}
	return f.ev, f.err
}

// ClearEvalCache discards all memoized evaluations and solo calibrations
// (tests use this to force recomputation). In-flight computations are not
// interrupted; their waiters still share the in-flight result, but new
// callers recompute.
func ClearEvalCache() {
	evalMu.Lock()
	evalCache = map[string]*evalFlight{}
	soloCache = map[soloKey]*soloFlight{}
	evalMu.Unlock()
}

// soloCalibrate runs the calibrations the solo memo misses on (a variable so
// tests can count them).
var soloCalibrate = core.SoloRates

// soloRates is core.SoloRates through the solo memo. Jobs whose calibration
// is memoized or in flight share it; this caller claims the rest and
// calibrates them together in one core.SoloRates call, then waits for the
// ones other callers claimed. Every caller computes its own claims before
// waiting, so concurrent callers cannot deadlock. The result is identical
// to calling core.SoloRates directly.
func soloRates(cfg arch.Config, jobs []*workload.Job, seeds []uint64, warmup, measure uint64) ([]float64, error) {
	if len(jobs) != len(seeds) {
		return nil, fmt.Errorf("experiments: %d jobs but %d seeds", len(jobs), len(seeds))
	}
	for _, j := range jobs {
		// SoloRates' own check, made here because the key cannot see
		// cfg.Contexts.
		if j.Threads() > cfg.Contexts {
			return nil, fmt.Errorf("experiments: calibrating %s: %d threads exceed %d contexts", j.Name(), j.Threads(), cfg.Contexts)
		}
	}
	keyCfg := cfg
	keyCfg.Contexts = 0
	keys := make([]soloKey, len(jobs))
	flights := make([]*soloFlight, len(jobs))
	var mine []int
	evalMu.Lock()
	for i, j := range jobs {
		keys[i] = soloKey{keyCfg, j.Spec, j.ID, seeds[i], warmup, measure}
		f, ok := soloCache[keys[i]]
		if !ok {
			f = &soloFlight{done: make(chan struct{})}
			soloCache[keys[i]] = f
			mine = append(mine, i)
		}
		flights[i] = f
	}
	evalMu.Unlock()

	if len(mine) > 0 {
		claimed := make([]*workload.Job, len(mine))
		claimedSeeds := make([]uint64, len(mine))
		for n, i := range mine {
			claimed[n], claimedSeeds[n] = jobs[i], seeds[i]
		}
		rates, err := soloCalibrate(cfg, claimed, claimedSeeds, warmup, measure)
		off := 0
		for _, i := range mine {
			f := flights[i]
			if f.err = err; err == nil {
				f.rates = rates[off : off+jobs[i].Threads()]
				off += jobs[i].Threads()
			}
			close(f.done)
		}
		if err != nil {
			// Failures are not memoized (see EvalMixCachedCtx).
			evalMu.Lock()
			for _, i := range mine {
				if soloCache[keys[i]] == flights[i] {
					delete(soloCache, keys[i])
				}
			}
			evalMu.Unlock()
		}
	}

	var out []float64
	for _, f := range flights {
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		out = append(out, f.rates...)
	}
	return out, nil
}
