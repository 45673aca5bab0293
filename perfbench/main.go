// Command perfbench is the repository benchmark: a cold Figure-1 sweep
// in process, and miss-bound and hit-bound rank traffic through sosfront
// in front of two sosd backends, each daemon a separate process built
// from the tree under test. perfbench/run.sh builds everything and runs
// it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer split and the tracing overhead. The
// last line of standard output is the result object; the lines before it
// are the human-readable report and a run record. Any wrong output makes
// the run exit 1; config.json holds every fixed setting and why.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

//go:embed config.json
var configJSON []byte

// flagDoc is one daemon flag the benchmark sets away from its default.
type flagDoc struct {
	Flag  string `json:"flag"`
	Value string `json:"value"`
	Why   string `json:"why"`
}

// config is perfbench/config.json: every setting the workloads fix.
type config struct {
	Fig1 struct {
		Mixes        []string `json:"mixes"`
		DigestSeed   uint64   `json:"digest_seed"`
		Digest       string   `json:"digest"`
		SetupMix     string   `json:"setup_mix"`
		SetupSamples int      `json:"setup_samples"`
		LimitS       float64  `json:"limit_s"`
		ProbeCycles  uint64   `json:"probe_cycles"`
		ProbeInsts   uint64   `json:"probe_insts"`
	} `json:"fig1"`
	ServeMiss struct {
		Mixes          []string `json:"mixes"`
		RateRPS        float64  `json:"rate_rps"`
		SamplesMin     int      `json:"samples_min"`
		SamplesMax     int      `json:"samples_max"`
		WarmupRequests int      `json:"warmup_requests"`
		LatencyLimitMS float64  `json:"latency_limit_ms"`
		OracleSample   int      `json:"oracle_sample"`
	} `json:"serve_miss"`
	ServeHot struct {
		Mixes                  []string `json:"mixes"`
		HotKeys                int      `json:"hot_keys"`
		HotSamples             int      `json:"hot_samples"`
		ZipfS                  float64  `json:"zipf_s"`
		RequestsPerSecondOfRun float64  `json:"requests_per_second_of_run"`
		WarmupRequests         int      `json:"warmup_requests"`
		LatencyLimitMS         float64  `json:"latency_limit_ms"`
		RelayPairs             int      `json:"relay_pairs"`
	} `json:"serve_hot"`
	Connections   int       `json:"connections"`
	BootRepeats   int       `json:"boot_repeats"`
	SosdFlags     []flagDoc `json:"sosd_flags"`
	SosfrontFlags []flagDoc `json:"sosfront_flags"`
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	correct   bool
	problems  []string // every correctness-gate violation
	attempted int
	failed    int
	metrics   map[string]metric
	samples   map[string]string // metric → the sample count behind it
	notes     []string
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, samples: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, samples string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if samples != "" {
		r.samples[name] = samples
	}
}

// wrong records a correctness-gate violation.
func (r *report) wrong(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opts are the per-run inputs.
type opts struct {
	ctx      context.Context // ends the run at runBudget
	workload string
	seed     uint64
	seconds  int
	traced   bool
	bin      string // directory holding the sosd and sosfront binaries
	dir      string // this run's private scratch directory
	cfg      config
}

// endToEnd and perLayer are the metrics an untraced and a traced run
// print, in BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"}, {"goodput_ratio", "ratio"}, {"rss_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"experiments.shard_s_max", "s"}, {"experiments.shard_s_sum", "s"}, {"parallel.busy_ratio", "ratio"},
	{"core.calibrate_s", "s"}, {"core.warmup_s", "s"}, {"core.sample_s", "s"}, {"core.symbios_s", "s"},
	{"cpu.ns_per_cycle", "ns"}, {"cpu.minstr_per_s", "Minstr/s"}, {"trace.ns_per_inst", "ns"},
	{"sosd.stage_limiter_ms", "ms"}, {"sosd.stage_decode_ms", "ms"}, {"sosd.stage_cache_ms", "ms"},
	{"sosd.stage_breaker_ms", "ms"}, {"sosd.stage_queue_ms", "ms"}, {"sosd.stage_retry_ms", "ms"},
	{"sosd.request_ms", "ms"}, {"sosd.unstaged_ms", "ms"},
	{"sosd.cache_hit_ratio", "ratio"}, {"sosd.shed_count", "count"}, {"sosd.degraded_count", "count"},
	{"core.sim_cycles_per_req", "cycles"}, {"core.sim_minstr_per_eval_s", "Minstr/s"},
	{"fleet.relay_ms", "ms"}, {"fleet.hedges_per_req", "ratio"}, {"fleet.hedge_win_ratio", "ratio"},
	{"fleet.audits_per_req", "ratio"}, {"fleet.coalesced_ratio", "ratio"}, {"fleet.failovers", "count"},
	{"fleet.integrity_failures", "count"},
	{"loadgen.lag_tail_ms", "ms"}, {"bench.tracing_overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// complete makes r report exactly defs. A per-layer metric the workload
// does not exercise reads 0, marked n/a; a missing end-to-end metric is
// an error in the benchmark itself.
func (r *report) complete(defs []metricDef, traced bool) {
	keep := map[string]metric{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case ok && m.Unit != d.unit:
			r.wrong("metric %s reported in %s, declared in %s", d.name, m.Unit, d.unit)
		case !ok && traced:
			m = metric{Value: 0, Unit: d.unit}
			r.samples[d.name] = "n/a: not exercised by this workload"
		case !ok:
			r.wrong("metric %s not measured", d.name)
			m = metric{Value: 0, Unit: d.unit}
		}
		keep[d.name] = m
	}
	r.metrics = keep
}

// runBudget bounds one run, set-up and checks included, below the 180 s
// a run may take: a hung daemon fails the run instead of stalling it.
const runBudget = 160 * time.Second

var workloads = map[string]func(*opts) (*report, error){
	"fig1-sweep": runFig1,
	"serve-miss": runServeMiss,
	"serve-hot":  runServeHot,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "fig1-sweep, serve-miss or serve-hot")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is drawn from it")
	fs.IntVar(&o.seconds, "seconds", 20, "run length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the sosd and sosfront binaries")
	work := fs.String("work", ".bench_build/runs", "directory for per-run scratch (checkpoints, logs, spans)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig1-sweep|serve-miss|serve-hot, --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	o.traced = trace == 1
	if err := json.Unmarshal(configJSON, &o.cfg); err != nil {
		fatal(fmt.Errorf("config.json: %w", err))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	var err error
	if o.dir, err = os.MkdirTemp(*work, o.workload+"-"); err != nil {
		fatal(err)
	}
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fatal(err)
	}
	started := time.Now()
	var cancel context.CancelFunc
	o.ctx, cancel = context.WithTimeout(context.Background(), runBudget)
	rep, err := run(&o)
	cancel()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", o.workload, err))
	}
	if o.traced {
		rep.complete(perLayer, true)
	} else {
		rep.complete(endToEnd, false)
	}
	printReport(&o, rep, time.Since(started))
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// printReport prints the human-readable lines, the run record and, last,
// the result object.
func printReport(o *opts, r *report, took time.Duration) {
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.wrong("metric %s is %v", n, m.Value)
			r.metrics[n] = metric{Value: 0, Unit: m.Unit}
		}
	}
	kind := "end-to-end"
	if o.traced {
		kind = "per-layer"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s, run took %.1fs)\n", o.workload, o.seed, o.seconds, kind, took.Seconds())
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-30s %14s %-6s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, r.samples[n])
	}
	fmt.Printf("  %-30s %14d\n  %-30s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("  WRONG: %s\n", p)
	}
	rec, _ := json.Marshal(map[string]any{"run": runRecord(o, r)}) // maps of strings and numbers
	fmt.Println(string(rec))
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Println(string(out))
}
