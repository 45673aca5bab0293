package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/experiments"
	"symbios/internal/integrity"
	"symbios/internal/obs"
	"symbios/internal/parallel"
	"symbios/internal/rng"
	"symbios/internal/trace"
	"symbios/internal/workload"
)

// runFig1 is the researcher's path: one cold experiments.Figure1Ctx call
// over the configured mixes at ServeScale, Scale.Seed = the workload
// seed. Its unit of work is the whole sweep, so its latency metrics are
// the sweep's own time (one sample).
func runFig1(o *opts) (*report, error) {
	c := o.cfg.Fig1
	r := newReport()
	ctx := o.ctx

	// Set-up: evaluate a small mix, seeded apart from the sweep, so the
	// sweep starts on a grown heap and paged-in code. Repeated; the median
	// is setup_s. A traced run interleaves as many traced repetitions; the
	// excess of their median over the untraced median is the tracing
	// overhead.
	setupOnce := func(ctx context.Context, i int) (float64, error) {
		experiments.ClearEvalCache()
		sc := experiments.ServeScale()
		sc.Seed = rng.Hash2(o.seed, uint64(i), saltWarm)
		sc.MaxSamples = c.SetupSamples
		t0 := time.Now()
		_, err := experiments.Figure1Ctx(ctx, sc, []string{c.SetupMix})
		return time.Since(t0).Seconds(), err
	}
	var spans *spanLog
	var tracerOut bytes.Buffer // obs.Tracer serializes its writes
	tracedCtx := ctx
	if o.traced {
		spans = newSpanLog()
		tracedCtx = obs.WithTracer(ctx, obs.NewTracer(&tracerOut, nil))
	}
	var setups, tracedSetups []float64
	for i := 0; i < o.cfg.BootRepeats; i++ {
		s, err := setupOnce(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		if o.traced {
			if s, err = setupOnce(tracedCtx, i); err != nil {
				return nil, fmt.Errorf("traced set-up: %w", err)
			}
			tracedSetups = append(tracedSetups, s)
		}
	}
	if o.traced {
		r.set("bench.tracing_overhead_pct", 100*(median(tracedSetups)/median(setups)-1), "%",
			fmt.Sprintf("median of %d traced vs %d untraced %s evaluations, interleaved", len(tracedSetups), len(setups), c.SetupMix))
		tracerOut.Reset()
	}

	experiments.ClearEvalCache()
	sc := experiments.ServeScale()
	sc.Seed = o.seed
	end := spans.begin("fig1/sweep", "")
	t0 := time.Now()
	rows, err := experiments.Figure1Ctx(tracedCtx, sc, c.Mixes)
	wall := time.Since(t0)
	end()
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	bad := checkFig1(r, o, rows)
	r.attempted, r.failed = len(c.Mixes), bad

	if o.traced {
		if err := fig1Layers(r, o, spans, tracerOut.Bytes(), wall); err != nil {
			return nil, err
		}
		return r, spans.save(r, o.dir)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	good := float64(len(rows) - bad)
	if wall.Seconds() > c.LimitS {
		good = 0
	}
	n := fmt.Sprintf("n=1 sweep of %d mixes", len(c.Mixes))
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
	r.set("wall_s", wall.Seconds(), "s", n)
	r.set("throughput_rps", float64(len(rows)-bad)/wall.Seconds(), "1/s", fmt.Sprintf("%d rows", len(rows)))
	r.set("latency_p50_ms", 1000*wall.Seconds(), "ms", n)
	r.set("latency_p90_ms", 1000*wall.Seconds(), "ms", n)
	r.set("goodput_ratio", good/float64(len(c.Mixes)), "ratio", fmt.Sprintf("%d rows, limit %gs", len(c.Mixes), c.LimitS))
	r.set("rss_peak_mb", rss, "MiB", "benchmark process (the sweep runs in it)")
	return r, nil
}

// checkFig1 is the sweep's correctness gate: at the pinned seed the rows
// hash to the pinned digest; at any seed every row is finite with
// best ≥ avg ≥ worst > 0. It returns how many rows are wrong.
func checkFig1(r *report, o *opts, rows []experiments.Figure1Row) int {
	c := o.cfg.Fig1
	if len(rows) != len(c.Mixes) {
		r.wrong("fig1: %d rows for %d mixes", len(rows), len(c.Mixes))
		return len(c.Mixes)
	}
	bad := 0
	for i, row := range rows {
		vals := []float64{row.Worst, row.Best, row.Avg, row.SpreadPct, row.OverAvgPct}
		finite := true
		for _, v := range vals {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if row.Mix != c.Mixes[i] || !finite || !(row.Best >= row.Avg && row.Avg >= row.Worst && row.Worst > 0) || row.NumSchedules < 1 {
			r.wrong("fig1 row %d: %+v", i, row)
			bad++
		}
	}
	d := fig1Digest(rows)
	r.notes = append(r.notes, "fig1 rows digest "+d)
	if o.seed == c.DigestSeed && d != c.Digest {
		r.wrong("fig1 rows digest %s, pinned %s for seed %d", d, c.Digest, c.DigestSeed)
		bad = len(rows)
	}
	return bad
}

// fig1Digest hashes the rows at full float precision.
func fig1Digest(rows []experiments.Figure1Row) string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range rows {
		fmt.Fprintf(&b, "%s %s %s %s %d\n", row.Mix, g(row.Worst), g(row.Best), g(row.Avg), row.NumSchedules)
	}
	return integrity.Digest([]byte(b.String()))
}

// fig1Layers derives the sweep's per-layer split from the shard and
// sos/* spans the caller-supplied tracer recorded, plus the cpu and
// trace probes.
func fig1Layers(r *report, o *opts, spans *spanLog, tracerOut []byte, wall time.Duration) error {
	if err := spans.addTracer(tracerOut); err != nil {
		return err
	}
	shards := spans.named("shard")
	var sum, maxShard time.Duration
	for _, s := range shards {
		sum += s.Dur
		maxShard = max(maxShard, s.Dur)
	}
	workers := parallel.DefaultWorkers()
	n := fmt.Sprintf("%d shards", len(shards))
	r.set("experiments.shard_s_max", maxShard.Seconds(), "s", n)
	r.set("experiments.shard_s_sum", sum.Seconds(), "s", n)
	r.set("parallel.busy_ratio", ratio(sum.Seconds(), wall.Seconds()*float64(workers)), "ratio",
		fmt.Sprintf("%s over %.2fs × %d workers", n, wall.Seconds(), workers))
	for _, phase := range []string{"calibrate", "warmup", "sample", "symbios"} {
		ps := spans.named("sos/" + phase)
		var self time.Duration
		for _, p := range ps {
			self += selfTime(p, nestedIn(spans, p))
		}
		r.set("core."+phase+"_s", self.Seconds(), "s", fmt.Sprintf("%d spans", len(ps)))
	}
	if len(shards) != len(o.cfg.Fig1.Mixes) {
		r.wrong("traced sweep recorded %d shard spans for %d mixes", len(shards), len(o.cfg.Fig1.Mixes))
	}
	return kernelProbes(r, o)
}

// nestedIn returns the tracer spans of p's mix that lie inside p, other
// than p itself: the children whose time is not p's own.
func nestedIn(l *spanLog, p span) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Source == "tracer" && s.Detail == p.Detail && s != p && s.Start >= p.Start && s.end() <= p.end() {
			out = append(out, s)
		}
	}
	return out
}

// kernelProbes times the bottom two layers directly on the sweep mixes'
// jobs: cpu.New, Attach and Run for a fixed cycle count, and
// trace.Stream.At over a fixed instruction count.
func kernelProbes(r *report, o *opts) error {
	c := o.cfg.Fig1
	var cpuTime, traceTime time.Duration
	var cycles, committed, insts uint64
	var sink uint64
	for _, label := range c.Mixes {
		mix, err := workload.MixByLabel(label)
		if err != nil {
			return err
		}
		jobs, err := mix.Build(o.seed)
		if err != nil {
			return err
		}
		cfg := arch.Default21264(mix.SMTLevel)
		t0 := time.Now()
		core, err := cpu.New(cfg)
		if err != nil {
			return err
		}
		used := 0
		for _, j := range jobs {
			if used+j.Threads() > cfg.Contexts {
				continue
			}
			for t := 0; t < j.Threads(); t++ {
				core.Attach(used, j.Source(t), 0, j.Gate(), t)
				used++
			}
		}
		core.Run(c.ProbeCycles)
		cpuTime += time.Since(t0)
		cycles += c.ProbeCycles
		for ctx := 0; ctx < used; ctx++ {
			committed += core.ThreadCommitted(ctx)
		}

		for _, j := range jobs {
			s, err := trace.NewStream(j.Spec.Params, rng.Hash2(o.seed, uint64(j.ID), saltOracle), uint64(j.ID))
			if err != nil {
				return err
			}
			t0 := time.Now()
			for seq := uint64(0); seq < c.ProbeInsts; seq++ {
				sink += s.At(seq).PC
			}
			traceTime += time.Since(t0)
			insts += c.ProbeInsts
		}
	}
	if committed == 0 || sink == 0 {
		r.wrong("kernel probes made no progress (committed %d)", committed)
	}
	n := fmt.Sprintf("%d mixes × %d cycles", len(c.Mixes), c.ProbeCycles)
	r.set("cpu.ns_per_cycle", ratio(float64(cpuTime.Nanoseconds()), float64(cycles)), "ns", n)
	r.set("cpu.minstr_per_s", ratio(float64(committed)/1e6, cpuTime.Seconds()), "Minstr/s", n)
	r.set("trace.ns_per_inst", ratio(float64(traceTime.Nanoseconds()), float64(insts)), "ns",
		fmt.Sprintf("%d streams × %d insts", insts/max(c.ProbeInsts, 1), c.ProbeInsts))
	return nil
}
