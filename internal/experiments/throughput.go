package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/obs"
	"symbios/internal/parallel"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// MixEval is the full evaluation of one jobmix: the sampled schedules with
// their sample-phase predictor data, and each schedule's realized weighted
// speedup over a symbios-length run. Figures 1-3 and Table 3 are all views
// of this structure.
type MixEval struct {
	Mix  workload.Mix
	Cfg  arch.Config
	Solo []float64 // per task

	Scheds  []schedule.Schedule
	Samples []core.Sample
	WS      []float64 // symbios-phase WS per schedule
}

// buildJobs instantiates the mix's jobs with the evaluation's seed.
func buildJobs(m workload.Mix, seed uint64) ([]*workload.Job, []uint64, error) {
	jobs, err := m.Build(seed)
	if err != nil {
		return nil, nil, err
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(seed, uint64(i), 0x3017)
	}
	return jobs, seeds, nil
}

// EvalMix evaluates a registered mix under the scale: calibrate solo rates,
// sample up to MaxSamples distinct schedules on one continuously running
// machine (the overhead-free sample phase), then run every sampled schedule
// for a symbios phase on identically initialized machines and record its
// weighted speedup.
func EvalMix(label string, sc Scale) (*MixEval, error) {
	return EvalMixCtx(context.Background(), label, sc)
}

// EvalMixCtx is EvalMix bounded by a context: cancellation or deadline
// aborts between (and, at timeslice granularity, inside) schedule runs.
func EvalMixCtx(ctx context.Context, label string, sc Scale) (*MixEval, error) {
	mix, err := workload.MixByLabel(label)
	if err != nil {
		return nil, err
	}
	x := mix.Tasks()
	r := rng.New(rng.Hash2(sc.Seed, 0x5a321e, 0))
	scheds := schedule.Sample(r, x, mix.SMTLevel, mix.Swap, sc.MaxSamples)
	return EvalMixSchedulesCtx(ctx, mix, scheds, sc)
}

// EvalMixSchedules is EvalMix over an explicit candidate schedule set (used
// by studies that need a stratified rather than purely random sample).
func EvalMixSchedules(mix workload.Mix, scheds []schedule.Schedule, sc Scale) (*MixEval, error) {
	return EvalMixSchedulesCtx(context.Background(), mix, scheds, sc)
}

// EvalMixSchedulesCtx is EvalMixSchedules bounded by a context.
func EvalMixSchedulesCtx(ctx context.Context, mix workload.Mix, scheds []schedule.Schedule, sc Scale) (*MixEval, error) {
	cfg := arch.Default21264(mix.SMTLevel)
	slice := sc.sliceFor(mix)
	tr := obs.TracerFrom(ctx)

	jobs, seeds, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return nil, err
	}
	endCal := tr.Span("sos/calibrate", mix.Label)
	solo, err := soloRates(cfg, jobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
	endCal()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", mix.Label, err)
	}

	ev := &MixEval{Mix: mix, Cfg: cfg, Solo: solo, Scheds: scheds}

	// Sample phase: one machine, jobs progressing throughout. Warm it with
	// unrecorded rotations until the memory system reaches steady state
	// ("we begin simulation with each benchmark partially executed").
	m, err := core.NewMachine(cfg, jobs, slice)
	if err != nil {
		return nil, err
	}
	endWarm := tr.Span("sos/warmup", mix.Label)
	err = warm(ctx, m, scheds[0], sc.WarmupCycles)
	endWarm()
	if err != nil {
		return nil, err
	}
	endSample := tr.Span("sos/sample", mix.Label)
	for _, s := range scheds {
		res, err := m.RunScheduleCtx(ctx, s, s.CycleSlices()*sc.SampleRounds)
		if err != nil {
			endSample()
			return nil, err
		}
		ev.Samples = append(ev.Samples, core.NewSample(s, res))
	}
	endSample()

	// Symbios validation: run each sampled schedule from an identical
	// starting state and record its weighted speedup. Each run builds its
	// own jobs and machine from the same seed, so the runs are independent
	// and fan out across workers with bit-identical results — grouped into
	// core.EvalBatch chunks so one worker drives several machines through
	// warmup and the symbios window as a single coarse work item.
	endSym := tr.Span("sos/symbios", mix.Label)
	groups := chunkRanges(len(scheds), symbiosBatch)
	wsGroups, err := parallel.Map(groups, parallel.Options{Context: ctx}, func(_ int, g [2]int) ([]float64, error) {
		return symbiosWSBatch(ctx, mix, cfg, slice, sc, scheds[g[0]:g[1]], solo)
	})
	endSym()
	if err != nil {
		return nil, err
	}
	for _, ws := range wsGroups {
		ev.WS = append(ev.WS, ws...)
	}
	return ev, nil
}

// symbiosBatch is how many schedule evaluations one worker drives as a
// single EvalBatch work item. Grouping only regroups the fan-out — every
// schedule still runs on its own identically-seeded machine — so the
// weighted speedups are bit-identical at any batch size or worker count.
const symbiosBatch = 4

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

// EnumerateFor returns every distinct schedule of a mix (for mixes whose
// schedule space is small, like Jsb(6,3,3)'s 10).
func EnumerateFor(m workload.Mix) ([]schedule.Schedule, error) {
	return schedule.Enumerate(m.Tasks(), m.SMTLevel, m.Swap, 10_000)
}

// warmFor runs whole rotations of s, unrecorded, until at least cycles have
// elapsed, bringing the memory system to steady state.
func warmFor(m *core.Machine, s schedule.Schedule, cycles uint64) error {
	return warm(nil, m, s, cycles)
}

// warm runs whole rotations of s, unrecorded, until at least cycles have
// elapsed, bringing the memory system to steady state. A nil context is
// unbounded.
func warm(ctx context.Context, m *core.Machine, s schedule.Schedule, cycles uint64) error {
	rot := s.CycleSlices()
	rounds := int(cycles/(uint64(rot)*m.SliceCycles)) + 1
	_, err := m.RunScheduleCtx(ctx, s, rot*rounds)
	return err
}

// symbiosWS measures one schedule's symbios-phase weighted speedup on a
// fresh machine (a batch of one).
func symbiosWS(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, s schedule.Schedule, solo []float64) (float64, error) {
	ws, err := symbiosWSBatch(ctx, mix, cfg, slice, sc, []schedule.Schedule{s}, solo)
	if err != nil {
		return 0, err
	}
	return ws[0], nil
}

// symbiosWSBatch measures a group of schedules' symbios-phase weighted
// speedups, each on its own fresh machine (full warmup, then the symbios
// budget), with both phases advanced through one core.EvalBatch.
func symbiosWSBatch(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, group []schedule.Schedule, solo []float64) ([]float64, error) {
	ms := make([]*core.Machine, len(group))
	var warmup core.EvalBatch
	for i, s := range group {
		jobs, _, err := buildJobs(mix, sc.Seed)
		if err != nil {
			return nil, err
		}
		m, err := core.NewMachine(cfg, jobs, slice)
		if err != nil {
			return nil, err
		}
		ms[i] = m
		// Whole warmup rotations, exactly as warm() computes them.
		rot := s.CycleSlices()
		rounds := int(sc.WarmupCycles/(uint64(rot)*m.SliceCycles)) + 1
		if _, err := warmup.Add(m, s, rot*rounds); err != nil {
			return nil, err
		}
	}
	if _, err := warmup.Run(ctx); err != nil {
		return nil, err
	}
	var sym core.EvalBatch
	for i, s := range group {
		if _, err := sym.Add(ms[i], s, sc.symbiosSlices(slice, s.CycleSlices())); err != nil {
			return nil, err
		}
	}
	res, err := sym.Run(ctx)
	if err != nil {
		return nil, err
	}
	ws := make([]float64, len(group))
	for i, r := range res {
		ws[i], err = metrics.WeightedSpeedup(r.Cycles, r.Committed, solo)
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// Best, Worst and Avg summarize the symbios weighted speedups.
func (ev *MixEval) Best() float64 { return metrics.Max(ev.WS) }

// Worst returns the lowest symbios weighted speedup observed.
func (ev *MixEval) Worst() float64 { return metrics.Min(ev.WS) }

// Avg returns the mean symbios weighted speedup — the expected throughput
// of an oblivious (random) jobscheduler.
func (ev *MixEval) Avg() float64 { return metrics.Mean(ev.WS) }

// PredictorWS returns the symbios weighted speedup of the schedule each
// predictor picks from the sample-phase data.
func (ev *MixEval) PredictorWS(p core.Predictor) float64 {
	return ev.WS[core.Pick(ev.Samples, p)]
}

// Figure1Row is one bar pair of Figure 1.
type Figure1Row struct {
	Mix          string
	Worst, Best  float64
	Avg          float64
	SpreadPct    float64 // 100*(best-worst)/worst
	OverAvgPct   float64 // 100*(best-avg)/avg
	NumSchedules int
}

// Figure1 runs the worst-versus-best weighted speedup comparison over the
// 13 jobmix / multithreading level / replacement policy combinations.
func Figure1(sc Scale, labels []string) ([]Figure1Row, error) {
	return Figure1Ctx(context.Background(), sc, labels)
}

// Figure1Ctx is Figure1 bounded by a context, with each mix a resumable
// checkpoint shard.
func Figure1Ctx(ctx context.Context, sc Scale, labels []string) ([]Figure1Row, error) {
	if labels == nil {
		labels = workload.FigureMixes
	}
	return shardedMap(ctx, "fig1", labels, parallel.Options{}, func(ctx context.Context, _ int, l string) (Figure1Row, error) {
		ev, err := EvalMixCachedCtx(ctx, l, sc)
		if err != nil {
			return Figure1Row{}, err
		}
		return Figure1Row{
			Mix:          l,
			Worst:        ev.Worst(),
			Best:         ev.Best(),
			Avg:          ev.Avg(),
			SpreadPct:    100 * (ev.Best() - ev.Worst()) / ev.Worst(),
			OverAvgPct:   100 * (ev.Best() - ev.Avg()) / ev.Avg(),
			NumSchedules: len(ev.Scheds),
		}, nil
	})
}

// Table3Row is one row of Table 3: the predictor quantities a schedule
// showed in the sample phase and its weighted speedup in the symbios phase.
type Table3Row struct {
	Schedule  string
	IPC       float64
	AllConf   float64
	Dcache    float64
	FQ        float64
	FP        float64
	Sum2      float64
	Diversity float64
	Balance   float64
	Composite float64
	WS        float64
}

// Table3 reproduces the detailed Jsb(6,3,3) study: every one of the 10
// possible schedules, fully enumerated.
func Table3(sc Scale) ([]Table3Row, *MixEval, error) {
	return Table3Ctx(context.Background(), sc)
}

// Table3Ctx is Table3 bounded by a context. The MixEval holds live machine
// samples, so the study is not shard-checkpointed — only interruptible.
func Table3Ctx(ctx context.Context, sc Scale) ([]Table3Row, *MixEval, error) {
	ev, err := EvalMixCachedCtx(ctx, "Jsb(6,3,3)", sc)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Table3Row, len(ev.Samples))
	for i, s := range ev.Samples {
		rows[i] = Table3Row{
			Schedule:  s.Sched.String(),
			IPC:       s.IPC,
			AllConf:   s.AllConf,
			Dcache:    s.Dcache,
			FQ:        s.FQ,
			FP:        s.FP,
			Sum2:      s.Sum2,
			Diversity: s.Diversity,
			Balance:   s.Balance,
			Composite: core.Composite(ev.Samples, i),
			WS:        ev.WS[i],
		}
	}
	return rows, ev, nil
}

// Figure2Bar is one bar of Figure 2 (and one group entry of Figure 3).
type Figure2Bar struct {
	Label string
	WS    float64
}

// Figure2Bars renders an evaluated mix as the Figure 2 bar list: best,
// worst and average schedule, then the schedule chosen by each predictor.
func Figure2Bars(ev *MixEval) []Figure2Bar {
	bars := []Figure2Bar{
		{Label: "Best", WS: ev.Best()},
		{Label: "Worst", WS: ev.Worst()},
		{Label: "Avg", WS: ev.Avg()},
	}
	for _, p := range core.Predictors() {
		bars = append(bars, Figure2Bar{Label: p.String(), WS: ev.PredictorWS(p)})
	}
	return bars
}

// Figure2 evaluates Jsb(6,3,3) and returns its predictor bars.
func Figure2(sc Scale) ([]Figure2Bar, error) {
	return Figure2Ctx(context.Background(), sc)
}

// Figure2Ctx is Figure2 bounded by a context.
func Figure2Ctx(ctx context.Context, sc Scale) ([]Figure2Bar, error) {
	ev, err := EvalMixCachedCtx(ctx, "Jsb(6,3,3)", sc)
	if err != nil {
		return nil, err
	}
	return Figure2Bars(ev), nil
}

// Figure3Row is one group of Figure 3: a jobmix with the weighted speedup
// achieved by each predictor next to the best/worst/average schedule.
type Figure3Row struct {
	Mix  string
	Bars []Figure2Bar
}

// Figure3 runs the predictor comparison over the 13 combinations.
func Figure3(sc Scale, labels []string) ([]Figure3Row, error) {
	return Figure3Ctx(context.Background(), sc, labels)
}

// Figure3Ctx is Figure3 bounded by a context, with each mix a resumable
// checkpoint shard.
func Figure3Ctx(ctx context.Context, sc Scale, labels []string) ([]Figure3Row, error) {
	if labels == nil {
		labels = workload.FigureMixes
	}
	return shardedMap(ctx, "fig3", labels, parallel.Options{}, func(ctx context.Context, _ int, l string) (Figure3Row, error) {
		ev, err := EvalMixCachedCtx(ctx, l, sc)
		if err != nil {
			return Figure3Row{}, err
		}
		return Figure3Row{Mix: l, Bars: Figure2Bars(ev)}, nil
	})
}
