package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/rng"
)

// fleet is one deployment under test: sosfront in front of two sosd
// backends, each a separate process.
type fleet struct {
	backends []*daemon
	front    *daemon
}

// expand substitutes the {name} placeholders of the documented flags.
func expand(flags []flagDoc, vars map[string]string) []string {
	var args []string
	for _, f := range flags {
		v := f.Value
		for k, s := range vars {
			v = strings.ReplaceAll(v, "{"+k+"}", s)
		}
		args = append(args, f.Flag, v)
	}
	return args
}

// bootFleet starts two backends, each on a fresh checkpoint directory,
// then the front, and returns once all three answer /readyz.
func bootFleet(ctx context.Context, o *opts, tag string) (*fleet, error) {
	f := &fleet{}
	var bases []string
	for i := 0; i < 2; i++ {
		dir := filepath.Join(o.dir, tag, fmt.Sprintf("b%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, fmt.Sprintf("sosd b%d", i), filepath.Join(o.bin, "sosd"), dir+"/sosd.log",
			expand(o.cfg.SosdFlags, map[string]string{"dir": dir})...)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.backends = append(f.backends, d)
		bases = append(bases, d.base)
	}
	d, err := startDaemon(ctx, "sosfront", filepath.Join(o.bin, "sosfront"), filepath.Join(o.dir, tag, "sosfront.log"),
		expand(o.cfg.SosfrontFlags, map[string]string{"backends": strings.Join(bases, ",")})...)
	if err != nil {
		f.kill()
		return nil, err
	}
	f.front = d
	return f, nil
}

func (f *fleet) all() []*daemon {
	out := append([]*daemon(nil), f.backends...)
	if f.front != nil {
		out = append(out, f.front)
	}
	return out
}

// stop reads every daemon's peak RSS, then drains the front and the
// backends with SIGTERM; each must exit 0. It returns the VmHWM of each
// daemon, backends first, in MiB.
func (f *fleet) stop() ([]float64, error) {
	ds := f.all()
	var rss []float64
	var errs []error
	for _, d := range ds {
		mb, err := d.peakRSSMB()
		rss = append(rss, mb)
		errs = append(errs, err)
	}
	// Front first, so no relayed request meets a draining backend.
	for i := len(ds) - 1; i >= 0; i-- {
		errs = append(errs, ds[i].stop())
	}
	return rss, errors.Join(errs...)
}

// kill ends every daemon still running; for error paths.
func (f *fleet) kill() {
	for _, d := range f.all() {
		d.kill()
	}
}

// startupSettle is how long a just-booted fleet runs before the boot
// repetitions stop it.
const startupSettle = 250 * time.Millisecond

// bootRepeated boots the fleet BootRepeats times, draining all but the
// last, and returns the last with the median boot-to-ready seconds.
func bootRepeated(ctx context.Context, o *opts) (*fleet, float64, error) {
	var boots []float64
	for i := 0; i < o.cfg.BootRepeats; i++ {
		t0 := time.Now()
		f, err := bootFleet(ctx, o, fmt.Sprintf("boot%d", i))
		if err != nil {
			return nil, 0, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		if i == o.cfg.BootRepeats-1 {
			return f, median(boots), nil
		}
		// sosd and sosfront start serving before they install their
		// SIGTERM handler, so a SIGTERM right after /readyz can kill one
		// by signal instead of draining it. Wait out that start-up window
		// (off the clock) so the drain check tests draining.
		time.Sleep(startupSettle)
		if _, err := f.stop(); err != nil {
			f.kill()
			return nil, 0, err
		}
	}
	return nil, 0, errors.New("boot_repeats must be at least 1")
}

// scrapes holds one /metrics snapshot of the front and of the backends
// summed.
type scrapes struct{ front, backends promSample }

func (f *fleet) scrape(c *http.Client) (scrapes, error) {
	s := scrapes{backends: promSample{}}
	var err error
	if s.front, err = scrape(c, f.front.base); err != nil {
		return s, err
	}
	for _, b := range f.backends {
		one, err := scrape(c, b.base)
		if err != nil {
			return s, err
		}
		s.backends.add(one)
	}
	return s, nil
}

// rankAnswer is the part of a /v1/schedule answer the gate checks.
type rankAnswer struct {
	Mix      string `json:"mix"`
	Mode     string `json:"mode"`
	Seed     uint64 `json:"seed"`
	Best     string `json:"best"`
	Degraded string `json:"degraded"`
	Ranking  []struct {
		Schedule string `json:"schedule"`
	} `json:"ranking"`
}

// verdict classifies one answer.
type verdict int

const (
	answered verdict = iota // 200, full service, digest and body valid
	failed                  // refused, shed, 5xx, degraded or transport error
	wrong                   // digest mismatch or an invalid body: a correctness violation
)

// judge applies the per-response gate: every response's X-Content-Digest
// is verified (errors included); a 200 must be a full-service rank answer
// to req.
func judge(o outcome, req rankRequest) (verdict, string) {
	if o.Err != nil {
		return failed, o.Err.Error()
	}
	if err := integrity.Check(o.Header.Get(integrity.Header), o.Body); err != nil {
		return wrong, fmt.Sprintf("status %d: %v", o.Status, err)
	}
	if o.Status != http.StatusOK {
		return failed, fmt.Sprintf("status %d", o.Status)
	}
	if m := o.Header.Get("X-Brownout-Mode"); m != "0" {
		return failed, "degraded: X-Brownout-Mode " + m
	}
	var a rankAnswer
	if err := json.Unmarshal(o.Body, &a); err != nil {
		return wrong, fmt.Sprintf("body: %v", err)
	}
	if a.Mix != req.Mix || a.Seed != req.Seed || a.Mode != "rank" || a.Degraded != "" ||
		len(a.Ranking) < 1 || len(a.Ranking) > req.Samples || a.Best != a.Ranking[0].Schedule {
		return wrong, fmt.Sprintf("answer %s does not fit request %+v", o.Body, req)
	}
	return answered, ""
}

// tally judges every outcome into r and returns the per-request
// latencies, +Inf for a request that was not answered.
func tally(r *report, outs []outcome, reqs func(i int) rankRequest) []float64 {
	lat := make([]float64, len(outs))
	r.attempted = len(outs)
	for i, o := range outs {
		v, why := judge(o, reqs(i))
		lat[i] = float64(o.latency()) / 1e6
		switch v {
		case failed:
			r.failed++
			lat[i] = math.Inf(1)
		case wrong:
			r.failed++
			lat[i] = math.Inf(1)
			r.wrong("request %d: %s", i, why)
		}
	}
	return lat
}

// setServing reports the serving workloads' end-to-end metrics, other
// than set-up, over the timed window, which runs from the script's time
// zero to the last answer.
func setServing(r *report, outs []outcome, lat []float64, limitMS float64, rss []float64) {
	for _, p := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_p90_ms", 90}} {
		v, beyond, err := percentile(lat, p.p)
		if err != nil || math.IsInf(v, 0) {
			r.wrong("%s unresolved: %v (%d of %d not answered)", p.name, err, r.failed, len(lat))
			continue
		}
		r.set(p.name, v, "ms", fmt.Sprintf("p%g of n=%d, %d beyond", p.p, len(lat), beyond))
	}
	var last time.Duration
	for _, o := range outs {
		last = max(last, o.Done)
	}
	wall := last.Seconds()
	n := len(outs)
	r.set("wall_s", wall, "s", fmt.Sprintf("n=%d, window start to last answer", n))
	r.set("throughput_rps", float64(r.attempted-r.failed)/wall, "1/s", fmt.Sprintf("n=%d", n))
	r.set("goodput_ratio", goodput(lat, limitMS), "ratio", fmt.Sprintf("n=%d, limit %gms", n, limitMS))
	r.set("rss_peak_mb", sum(rss), "MiB", fmt.Sprintf("VmHWM summed over sosd, sosd, sosfront: %.1f", rss))
	r.notes = append(r.notes, fmt.Sprintf("error_ratio %g (%d of %d)", ratio(float64(r.failed), float64(n)), r.failed, n))
}

// goodput is the share of requests answered within limitMS.
func goodput(lat []float64, limitMS float64) float64 {
	good := 0
	for _, l := range lat {
		if l <= limitMS {
			good++
		}
	}
	return ratio(float64(good), float64(len(lat)))
}

// tracedHalf marks the requests of a traced window that carry a span:
// every other one, so traced and untraced requests share the window and
// their latency difference is the tracing overhead.
func tracedHalf(i int) bool { return i%2 == 1 }

// tracingOverhead reports how much slower the traced half answered.
func tracingOverhead(r *report, lat []float64) {
	var on, off []float64
	for i, l := range lat {
		if tracedHalf(i) {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	pOn, _, err1 := percentile(on, 50)
	pOff, _, err2 := percentile(off, 50)
	if err := errors.Join(err1, err2); err != nil {
		r.notes = append(r.notes, "tracing overhead unresolved: "+err.Error())
		return
	}
	r.set("bench.tracing_overhead_pct", 100*(pOn/pOff-1), "%",
		fmt.Sprintf("p50 of %d traced vs %d untraced requests", len(on), len(off)))
}

// runServeMiss drives fresh-fingerprint rank requests through the front
// as an open-loop Poisson stream at the fixed configured rate.
func runServeMiss(o *opts) (*report, error) {
	c := o.cfg.ServeMiss
	r := newReport()
	ctx := o.ctx
	f, boot, err := bootRepeated(ctx, o)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	client := newClient(o.cfg.Connections)
	front := poster{client, f.front.base + "/v1/schedule"}

	// Arm the front's hedge-delay tracker with misses drawn from a seed
	// stream disjoint from the timed one.
	t0 := time.Now()
	warm := missRequests(o.seed, saltWarm, c.WarmupRequests, c.Mixes, c.SamplesMin, c.SamplesMax)
	warmOuts := closedLoop(ctx, len(warm), o.cfg.Connections, func(ctx context.Context, i int, out *outcome) {
		front.post(ctx, warm[i].body(), out)
	})
	for i, w := range warmOuts {
		if v, why := judge(w, warm[i]); v != answered {
			return nil, fmt.Errorf("warm-up request %d: %s", i, why)
		}
	}
	setup := boot + time.Since(t0).Seconds()

	n := int(math.Round(c.RateRPS * float64(o.seconds)))
	reqs := missRequests(o.seed, saltTimed, n, c.Mixes, c.SamplesMin, c.SamplesMax)
	script := poissonScript(o.seed, c.RateRPS, reqs)
	bodies := make([][]byte, n)
	for i, a := range script {
		bodies[i] = a.Req.body()
	}
	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}
	scrapeClient := newClient(1)
	before, err := f.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(5 * time.Millisecond)
	outs := openLoop(ctx, start, script, o.cfg.Connections, func(ctx context.Context, i int, out *outcome) {
		if o.traced && tracedHalf(i) {
			defer spans.begin("front/schedule", reqs[i].Mix)()
		}
		front.post(ctx, bodies[i], out)
	})
	after, err := f.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	rss, err := f.stop()
	if err != nil {
		return nil, err
	}
	lat := tally(r, outs, func(i int) rankRequest { return reqs[i] })
	if err := oracleCheck(ctx, r, o, outs, reqs); err != nil {
		return nil, err
	}

	if o.traced {
		tracingOverhead(r, lat)
		var lags []float64
		for _, out := range outs {
			lags = append(lags, float64(out.lag())/1e6)
		}
		if p, v, beyond, ok := highestTail(lags); ok {
			r.set("loadgen.lag_tail_ms", v, "ms", fmt.Sprintf("p%g of n=%d, %d beyond", p, len(lags), beyond))
		}
		serveLayers(r, delta(before.front, after.front), delta(before.backends, after.backends), outs, n)
		if err := kernelProbes(r, o); err != nil {
			return nil, err
		}
		return r, spans.save(r, o.dir)
	}
	r.set("setup_s", setup, "s", fmt.Sprintf("median of %d boots + %d warm-up misses", o.cfg.BootRepeats, len(warm)))
	setServing(r, outs, lat, c.LatencyLimitMS, rss)
	return r, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// highestTail is the highest of p99 and p90 that has enough samples
// beyond it.
func highestTail(xs []float64) (p, v float64, beyond int, ok bool) {
	for _, p := range []float64{99, 90} {
		if v, beyond, err := percentile(xs, p); err == nil {
			return p, v, beyond, true
		}
	}
	return 0, 0, 0, false
}

// oracleCheck byte-compares a seeded sample of the window's answers with
// a fresh single-node sosd at default settings, off the clock.
func oracleCheck(ctx context.Context, r *report, o *opts, outs []outcome, reqs []rankRequest) error {
	dir := filepath.Join(o.dir, "oracle")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d, err := startDaemon(ctx, "oracle sosd", filepath.Join(o.bin, "sosd"), dir+"/sosd.log", "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer d.kill()
	p := poster{newClient(1), d.base + "/v1/schedule"}
	checked := 0
	for _, i := range rng.New(rng.Hash2(o.seed, saltOracle, 0)).Perm(len(outs)) {
		if checked == o.cfg.ServeMiss.OracleSample {
			break
		}
		if outs[i].Status != http.StatusOK {
			continue
		}
		var want outcome
		p.post(ctx, reqs[i].body(), &want)
		if want.Err != nil || want.Status != http.StatusOK {
			return fmt.Errorf("oracle request %d: status %d %v", i, want.Status, want.Err)
		}
		if !bytes.Equal(want.Body, outs[i].Body) {
			r.wrong("request %d differs from the oracle: %s vs %s", i, outs[i].Body, want.Body)
		}
		checked++
	}
	r.notes = append(r.notes, fmt.Sprintf("oracle byte-compared %d answers", checked))
	return d.stop()
}

// runServeHot drives a Zipf-popular closed loop over a small hot set that
// every replica has cached.
func runServeHot(o *opts) (*report, error) {
	c := o.cfg.ServeHot
	r := newReport()
	ctx := o.ctx
	f, boot, err := bootRepeated(ctx, o)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	client := newClient(o.cfg.Connections)
	front := poster{client, f.front.base + "/v1/schedule"}

	t0 := time.Now()
	hot := hotSet(o.seed, c.HotKeys, c.Mixes, c.HotSamples)
	bodies := make([][]byte, len(hot))
	for i, h := range hot {
		bodies[i] = h.body()
	}
	captured, err := warmReplicas(ctx, r, f, hot, bodies)
	if err != nil {
		return nil, err
	}
	// Unmeasured hits through the front arm its hedge-delay tracker.
	warmDraws := zipfDraws(o.seed, saltWarm, c.WarmupRequests, len(hot), c.ZipfS)
	warmOuts := closedLoop(ctx, len(warmDraws), o.cfg.Connections, func(ctx context.Context, i int, out *outcome) {
		front.post(ctx, bodies[warmDraws[i]], out)
	})
	for i, w := range warmOuts {
		if v, why := judge(w, hot[warmDraws[i]]); v != answered {
			return nil, fmt.Errorf("warm-up request %d: %s", i, why)
		}
	}
	setup := boot + time.Since(t0).Seconds()

	n := int(math.Round(c.RequestsPerSecondOfRun * float64(o.seconds)))
	draws := zipfDraws(o.seed, saltTimed, n, len(hot), c.ZipfS)
	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}
	scrapeClient := newClient(1)
	before, err := f.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	outs := closedLoop(ctx, n, o.cfg.Connections, func(ctx context.Context, i int, out *outcome) {
		if o.traced && tracedHalf(i) {
			defer spans.begin("front/schedule", hot[draws[i]].Mix)()
		}
		front.post(ctx, bodies[draws[i]], out)
	})
	after, err := f.scrape(scrapeClient)
	if err != nil {
		return nil, err
	}
	lat := tally(r, outs, func(i int) rankRequest { return hot[draws[i]] })
	misses := 0
	for i, out := range outs {
		if out.Status == http.StatusOK && !bytes.Equal(out.Body, captured[draws[i]]) {
			r.wrong("request %d (hot key %d): bytes differ from those captured at set-up", i, draws[i])
		}
		if out.Header.Get("X-Cache") != "hit" {
			misses++
		}
	}
	if misses > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d of %d hot requests were not cache hits", misses, n))
	}

	if o.traced {
		relayProbe(ctx, r, o, f, spans, outs, draws, bodies)
	}
	rss, err := f.stop()
	if err != nil {
		return nil, err
	}
	if o.traced {
		tracingOverhead(r, lat)
		r.set("loadgen.lag_tail_ms", 0, "ms", "closed loop: every request is sent when due")
		serveLayers(r, delta(before.front, after.front), delta(before.backends, after.backends), outs, n)
		if err := kernelProbes(r, o); err != nil {
			return nil, err
		}
		return r, spans.save(r, o.dir)
	}
	r.set("setup_s", setup, "s", fmt.Sprintf("median of %d boots + %d keys warmed on each replica + %d warm-up hits", o.cfg.BootRepeats, len(hot), len(warmDraws)))
	setServing(r, outs, lat, c.LatencyLimitMS, rss)
	// The hot p99 swings with host scheduling noise far more than any
	// allowed bound on a small shared box; it is printed, not bounded.
	if v, beyond, err := percentile(lat, 99); err == nil {
		r.notes = append(r.notes, fmt.Sprintf("latency p99 %.4g ms (n=%d, %d beyond; unresolved, not bounded)", v, len(lat), beyond))
	}
	return r, nil
}

// warmReplicas asks every hot key of every backend directly, one sender
// per backend, and returns the answer bytes per key. Replicas must agree
// byte for byte. Warming only through the front would leave the second
// replica cold: the front's divergence audits would then turn its first
// sight of a hot key into a full simulation inside the timed window.
func warmReplicas(ctx context.Context, r *report, f *fleet, hot []rankRequest, bodies [][]byte) ([][]byte, error) {
	got := make([][][]byte, len(f.backends))
	errs := make([]error, len(f.backends))
	var wg sync.WaitGroup
	for b, d := range f.backends {
		wg.Add(1)
		go func(b int, d *daemon) {
			defer wg.Done()
			p := poster{newClient(1), d.base + "/v1/schedule"}
			got[b] = make([][]byte, len(hot))
			for i := range hot {
				var out outcome
				p.post(ctx, bodies[i], &out)
				if v, why := judge(out, hot[i]); v != answered {
					errs[b] = fmt.Errorf("warming %s with hot key %d: %s", d.name, i, why)
					return
				}
				got[b][i] = out.Body
			}
		}(b, d)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i := range hot {
		for b := 1; b < len(got); b++ {
			if !bytes.Equal(got[0][i], got[b][i]) {
				r.wrong("hot key %d: replicas disagree: %s vs %s", i, got[0][i], got[b][i])
			}
		}
	}
	return got[0], nil
}

// relayProbe alternates hot requests through the front and straight to
// the backend that answered them in the window, alternating which goes
// first; the median of the paired differences is the relay's cost.
func relayProbe(ctx context.Context, r *report, o *opts, f *fleet, spans *spanLog, outs []outcome, draws []int, bodies [][]byte) {
	owner := map[int]string{} // hot key → the backend the front chose
	for i, out := range outs {
		if _, ok := owner[draws[i]]; !ok && out.Status == http.StatusOK {
			owner[draws[i]] = out.Header.Get("X-Fleet-Backend")
		}
	}
	c := newClient(1)
	timed := func(name, base string, k int) (float64, []byte) {
		var out outcome
		end := spans.begin(name, base)
		t0 := time.Now()
		poster{c, base + "/v1/schedule"}.post(ctx, bodies[k], &out)
		d := time.Since(t0)
		end()
		if out.Err != nil || out.Status != http.StatusOK {
			r.wrong("relay probe via %s: status %d %v", base, out.Status, out.Err)
		}
		return float64(d) / 1e6, out.Body
	}
	var diffs []float64
	for p := 0; len(diffs) < o.cfg.ServeHot.RelayPairs && p < len(draws); p++ {
		k := draws[p]
		if owner[k] == "" {
			continue
		}
		var viaFront, direct float64
		var fb, db []byte
		if p%2 == 0 {
			viaFront, fb = timed("relay/front", f.front.base, k)
			direct, db = timed("relay/direct", owner[k], k)
		} else {
			direct, db = timed("relay/direct", owner[k], k)
			viaFront, fb = timed("relay/front", f.front.base, k)
		}
		if !bytes.Equal(fb, db) {
			r.wrong("hot key %d: front and direct answers differ", k)
		}
		diffs = append(diffs, viaFront-direct)
	}
	v, _, err := percentile(diffs, 50)
	if err != nil {
		r.notes = append(r.notes, "relay cost unresolved: "+err.Error())
		return
	}
	r.set("fleet.relay_ms", v, "ms", fmt.Sprintf("median of %d paired differences", len(diffs)))
}

// serveLayers derives the serving per-layer split from the /metrics
// deltas of the front and the summed backends over the timed window of n
// client requests.
func serveLayers(r *report, front, b promSample, outs []outcome, n int) {
	stage := func(s string) (sum, count float64) {
		l := `{stage="` + s + `"}`
		return b["sosd_stage_seconds_sum"+l], b["sosd_stage_seconds_count"+l]
	}
	_, reqs := stage("limiter") // every /v1/schedule request passes the limiter first
	nreq := fmt.Sprintf("%g backend requests", reqs)
	var staged float64
	for _, s := range []string{"limiter", "decode", "cache", "breaker", "queue", "retry"} {
		sum, count := stage(s)
		if s != "retry" { // sosd times the retry stage inside the queue stage
			staged += sum
		}
		r.set("sosd.stage_"+s+"_ms", 1000*ratio(sum, count), "ms", fmt.Sprintf("%g observations", count))
	}
	reqSum := b["sosd_http_request_seconds_sum"]
	r.set("sosd.request_ms", 1000*ratio(reqSum, reqs), "ms", nreq)
	r.set("sosd.unstaged_ms", 1000*ratio(reqSum-staged, reqs), "ms", nreq)
	_, lookups := stage("cache")
	r.set("sosd.cache_hit_ratio", ratio(b["sosd_cache_hits_total"], lookups), "ratio", fmt.Sprintf("%g lookups", lookups))
	r.set("sosd.shed_count", b[`sosd_http_requests_total{code="429"}`]+b[`sosd_http_requests_total{code="503"}`], "count", nreq)
	degraded := 0
	for _, o := range outs {
		if m := o.Header.Get("X-Brownout-Mode"); o.Err == nil && m != "0" {
			degraded++
		}
	}
	r.set("sosd.degraded_count", float64(degraded), "count", fmt.Sprintf("%d client responses", len(outs)))
	retrySum, evals := stage("retry")
	r.set("core.sim_cycles_per_req", ratio(b["sim_cycles_total"], evals), "cycles", fmt.Sprintf("%g evaluations", evals))
	r.set("core.sim_minstr_per_eval_s", ratio(b["sim_committed_total"]/1e6, retrySum), "Minstr/s", fmt.Sprintf("%g evaluations", evals))
	for _, phase := range []string{"calibrate", "warmup", "sample", "symbios"} {
		r.set("core."+phase+"_s", b[`obs_span_seconds_sum{span="sos/`+phase+`"}`], "s", "sosd obs_span_seconds")
	}
	hedges := front.family("fleet_hedges_total")
	nn := fmt.Sprintf("%d client requests", n)
	r.set("fleet.hedges_per_req", ratio(hedges, float64(n)), "ratio", nn)
	r.set("fleet.hedge_win_ratio", ratio(front.family("fleet_hedge_wins_total"), hedges), "ratio", fmt.Sprintf("%g hedges", hedges))
	r.set("fleet.audits_per_req", ratio(front.family("fleet_audits_total"), float64(n)), "ratio", nn)
	r.set("fleet.coalesced_ratio", ratio(front.family("fleet_coalesced_total"), float64(n)), "ratio", nn)
	r.set("fleet.failovers", front.family("fleet_failovers_total"), "count", nn)
	r.set("fleet.integrity_failures", front.family("fleet_integrity_failures_total"), "count", nn)
}
