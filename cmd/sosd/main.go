// Command sosd serves the SOS scheduler as a small, resilient HTTP service:
// POST a jobmix and seed to /v1/schedule and get back the predictor-ranked
// coschedule (or a full adaptive-run verdict). The interesting part is not
// the route table but the failure behavior — every request passes admission
// control, a circuit breaker, a deadline budget, a bounded queue and a
// budgeted retry loop, so overload sheds instead of queuing unboundedly and
// a sick simulator backend fails fast instead of dragging every client
// down with it. See DESIGN.md section 10.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM drained), 1 internal error,
// 2 usage error.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"symbios/internal/buildinfo"
	"symbios/internal/checkpoint"
	"symbios/internal/experiments"
	"symbios/internal/faults"
	"symbios/internal/obs"
	"symbios/internal/resilience"
	"symbios/internal/rng"
)

// Exit codes.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sosd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var (
		addr    = fs.String("addr", "127.0.0.1:8723", "listen address (host:port; port 0 picks a free port)")
		scale   = fs.String("scale", "serve", "cycle budget: serve, quick or default")
		chaos   = fs.Float64("chaos", 0, "probability of injected counter-read failure per read (chaos mode; also unlocks per-request fault blocks)")
		ckpt    = fs.String("checkpoint", "", "response-cache checkpoint file (resumed when it exists)")
		every   = fs.Int("checkpoint-every", 8, "flush the checkpoint every N recorded responses")
		warm    = fs.String("warm-from", "", "comma-separated sibling sosd base URLs to warm the response cache from on boot (requires -checkpoint; /readyz reports 503 until the transfer settles)")
		warmTO  = fs.Duration("warm-timeout", 10*time.Second, "per-sibling cache warm-up fetch timeout")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		pprofOn = fs.Bool("pprof", false, "mount net/http/pprof endpoints under /debug/pprof/")
		version = fs.Bool("version", false, "print version and exit")

		deadlineDef = fs.Duration("deadline-default", 5*time.Second, "per-request deadline when the client sets none")
		deadlineMax = fs.Duration("deadline-max", 30*time.Second, "per-request deadline ceiling")

		rate    = fs.Float64("rate", 50, "admission rate, requests/second")
		burst   = fs.Float64("burst", 0, "admission burst (0 = same as -rate)")
		qdepth  = fs.Int("queue", 64, "work queue depth")
		workers = fs.Int("workers", 4, "work queue workers")

		queueTarget   = fs.Duration("queue-target", 0, "CoDel sojourn target: shed while queued time stays above this for -queue-interval (0 disables)")
		queueInterval = fs.Duration("queue-interval", 0, "CoDel sustained-exceedance window (0 = 4x -queue-target)")

		brownoutPin      = fs.Int("brownout-pin", -1, "pin the degradation mode 0..2 (-1 runs the hysteresis controller)")
		brownoutDown     = fs.Duration("brownout-down", 250*time.Millisecond, "queue sojourn above this steps the ladder down")
		brownoutUp       = fs.Duration("brownout-up", 0, "queue sojourn below this steps the ladder back up (0 = -brownout-down/4)")
		brownoutDownHold = fs.Duration("brownout-down-hold", time.Second, "sustained exceedance required before a step down")
		brownoutUpHold   = fs.Duration("brownout-up-hold", 0, "sustained recovery required before a step up (0 = 4x -brownout-down-hold)")

		divergence    = fs.Float64("divergence", 0, "fault injection: fraction of schedule fingerprints answered with deterministically perturbed bytes (models a divergent replica)")
		divergenceFor = fs.Duration("divergence-for", 0, "fault injection: close the -divergence window after this much uptime (0 = never)")

		brkWindow   = fs.Int("breaker-window", 32, "breaker sliding window size")
		brkMin      = fs.Int("breaker-min", 8, "breaker minimum samples before tripping")
		brkRate     = fs.Float64("breaker-rate", 0.5, "breaker error-rate threshold")
		brkCooldown = fs.Duration("breaker-cooldown", 2*time.Second, "breaker open-state cooldown")
		brkProbes   = fs.Int("breaker-probes", 3, "breaker half-open probe quota")

		retryAttempts = fs.Int("retry-attempts", 3, "max evaluation attempts per request")
		retryBase     = fs.Duration("retry-base", 20*time.Millisecond, "retry backoff base delay")
		retryMax      = fs.Duration("retry-max", 500*time.Millisecond, "retry backoff max delay")
		budgetRatio   = fs.Float64("retry-budget-ratio", 0.2, "retry credit earned per first attempt, per client")
		budgetCap     = fs.Float64("retry-budget-cap", 10, "retry credit ceiling per client")

		soakURL      = fs.String("soak", "", "run as a soak-test client against this base URL instead of serving")
		soakDuration = fs.Duration("soak-duration", 30*time.Second, "soak client: how long to generate load")
		soakPoison   = fs.Float64("soak-poison", 0.2, "soak client: fraction of requests carrying a fault block")
		soakSeed     = fs.Uint64("soak-seed", 1, "soak client: load-pattern seed")
		soakRate     = fs.Float64("soak-rate", 100, "soak client: request pacing, requests/second (0 = unpaced)")
		soakAdaptive = fs.Float64("soak-adaptive", 0, "soak client: fraction of load requests using the (expensive) adaptive mode")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `sosd — resilient SOS coscheduling service

Usage:
  sosd [flags]                 serve (default)
  sosd -soak URL [flags]       generate soak load against a running sosd

Exit codes:
  0  clean shutdown (drained on SIGINT/SIGTERM), or soak passed
  1  internal error, or soak found a violation
  2  usage error

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Version("sosd"))
		return exitOK
	}
	logger := log.New(stderr, "sosd: ", log.LstdFlags|log.Lmsgprefix)

	if *soakURL != "" {
		return soakClient(stdout, logger, *soakURL, *soakDuration, *soakPoison, *soakSeed, *soakRate, *soakAdaptive)
	}

	var sc experiments.Scale
	switch *scale {
	case "serve":
		sc = experiments.ServeScale()
	case "quick":
		sc = experiments.QuickScale()
	case "default":
		sc = experiments.DefaultScale()
	default:
		fmt.Fprintf(stderr, "unknown -scale %q (want serve, quick or default)\n", *scale)
		return exitUsage
	}
	if *chaos < 0 || *chaos > 1 {
		fmt.Fprintf(stderr, "-chaos %v out of range [0,1]\n", *chaos)
		return exitUsage
	}
	if *warm != "" && *ckpt == "" {
		fmt.Fprintln(stderr, "-warm-from requires -checkpoint (the transferred cache needs somewhere to live)")
		return exitUsage
	}
	if *brownoutPin < -1 || *brownoutPin > brownoutModes-1 {
		fmt.Fprintf(stderr, "-brownout-pin %d out of range [-1,%d]\n", *brownoutPin, brownoutModes-1)
		return exitUsage
	}
	if *divergence < 0 || *divergence > 1 {
		fmt.Fprintf(stderr, "-divergence %v out of range [0,1]\n", *divergence)
		return exitUsage
	}

	eval := &evaluator{scale: sc}
	mode := "sosd"
	if *chaos > 0 {
		eval.chaos = &faults.Config{FailRate: *chaos}
		mode = "sosd-chaos"
		logger.Printf("chaos mode: counter reads fail with p=%v", *chaos)
	}
	if *divergence > 0 {
		logger.Printf("divergence fault injection: p=%v window=%v", *divergence, *divergenceFor)
	}

	var rec *checkpoint.Recorder
	if *ckpt != "" {
		meta := checkpoint.Meta{Exp: mode, Scale: *scale, Seed: sc.Seed}
		if _, err := os.Stat(*ckpt); err == nil {
			r, err := checkpoint.Resume(*ckpt, "", meta, *every)
			if err != nil {
				logger.Printf("checkpoint resume failed: %v", err)
				return exitInternal
			}
			rec = r
			logger.Printf("resumed %d cached responses from %s", rec.Shards(), *ckpt)
		} else {
			rec = checkpoint.NewRecorder(*ckpt, meta, *every)
		}
	}

	// Metrics are always on in the daemon: the registry is atomic counters
	// and observability never feeds back into scheduling. Tests cover the
	// nil-registry (disabled) configuration.
	reg := obs.NewRegistry()

	srv := newServer(serverConfig{
		Scale:       *scale,
		Chaos:       *chaos,
		DeadlineDef: *deadlineDef,
		DeadlineMax: *deadlineMax,
		Pprof:       *pprofOn,

		Rate:    *rate,
		Burst:   *burst,
		Queue:   *qdepth,
		Workers: *workers,

		BreakerWindow:   *brkWindow,
		BreakerMin:      *brkMin,
		BreakerRate:     *brkRate,
		BreakerCooldown: *brkCooldown,
		BreakerProbes:   *brkProbes,

		RetryAttempts:    *retryAttempts,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		RetryBudgetRatio: *budgetRatio,
		RetryBudgetCap:   *budgetCap,

		QueueTarget:   *queueTarget,
		QueueInterval: *queueInterval,

		BrownoutPin:      *brownoutPin,
		BrownoutDown:     *brownoutDown,
		BrownoutUp:       *brownoutUp,
		BrownoutDownHold: *brownoutDownHold,
		BrownoutUpHold:   *brownoutUpHold,

		Divergence:    *divergence,
		DivergenceFor: *divergenceFor,
	}, eval, rec, reg, logger, func(from, to resilience.State) {
		logger.Printf("breaker: %s -> %s", from, to)
	})

	// The warming gate goes up before the listener: /readyz answers 503
	// "warming cache" from the very first request, and flips to ready only
	// once a sibling's cache has been merged (or every sibling failed and
	// the node falls through to a cold start).
	var siblings []string
	for _, sib := range strings.Split(*warm, ",") {
		if sib = strings.TrimSpace(sib); sib != "" {
			siblings = append(siblings, sib)
		}
	}
	if len(siblings) > 0 {
		srv.warming.Store(true)
		go srv.warmFromSiblings(siblings, *warmTO)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return exitInternal
	}
	httpSrv := &http.Server{Handler: srv.handler()}

	// The handler goes in before the address line: a supervisor may signal
	// the moment it reads the address, and until Notify the default action
	// kills the process instead of draining it.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	// The address line is a contract: scripts/soak.sh parses it to find a
	// dynamically chosen port.
	logger.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigs:
		logger.Printf("%v: draining (budget %s)", sig, *drain)
		if err := srv.shutdown(*drain, httpSrv); err != nil {
			logger.Printf("shutdown: %v", err)
			return exitInternal
		}
		<-serveErr // Serve has returned ErrServerClosed by now
		st, _ := json.Marshal(srv.stats())
		logger.Printf("drained cleanly; final stats: %s", st)
		return exitOK
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			return exitInternal
		}
		return exitOK
	}
}

// soakClient hammers a running sosd for the configured duration: a mix of
// clean and poisoned (fault-carrying) requests from several client
// identities, plus a recurring clean canary request whose responses must be
// byte-identical every time. Returns exitOK when the service shed load
// gracefully (only expected statuses, every shed carrying Retry-After),
// answered at least one request, and never broke the canary's determinism.
func soakClient(stdout io.Writer, logger *log.Logger, base string, dur time.Duration, poison float64, seed uint64, rate, adaptive float64) int {
	if poison < 0 || poison > 1 {
		logger.Printf("-soak-poison %v out of range [0,1]", poison)
		return exitUsage
	}
	if rate < 0 {
		logger.Printf("-soak-rate %v must be non-negative", rate)
		return exitUsage
	}
	if adaptive < 0 || adaptive > 1 {
		logger.Printf("-soak-adaptive %v out of range [0,1]", adaptive)
		return exitUsage
	}
	// Pace the load near (but above) the server's default admission rate, so
	// the soak exercises both acceptance and shedding. Unpaced, the client
	// can outrun admission so thoroughly that nothing ever gets through.
	var pace time.Duration
	if rate > 0 {
		pace = time.Duration(float64(time.Second) / rate)
	}
	client := &http.Client{Timeout: 15 * time.Second}
	defer client.CloseIdleConnections()

	mixLabels := []string{"Jsb(4,2,2)", "Jsb(5,2,2)", "Jsb(6,3,3)"}
	r := rng.New(seed)
	deadline := time.Now().Add(dur)

	// The client is open-loop: requests fire at the configured pace whether
	// or not earlier ones have answered (bounded in-flight so a stalled
	// server cannot leak unbounded goroutines). A closed-loop client could
	// never offer more than 1x capacity — the whole point of the overload
	// soak is sustained offered load past what the server absorbs.
	var (
		mu  sync.Mutex // guards every counter below, canary, and detBroken
		wg  sync.WaitGroup
		sem = make(chan struct{}, 32)

		sent, ok2xx, shed429, unavail503, timeout504, bad4xx, other int
		shedBare                                                    int // sheds missing Retry-After (contract violations)
		canary                                                      []byte
		detBroken                                                   bool
	)
	statuses := map[int]*int{
		http.StatusOK:                 &ok2xx,
		http.StatusTooManyRequests:    &shed429,
		http.StatusServiceUnavailable: &unavail503,
		http.StatusGatewayTimeout:     &timeout504,
	}
	// Every shed — limiter 429, breaker/queue 503 — must tell the client
	// when to come back. 504 is a deadline verdict, not a shed.
	checkShed := func(status int, hdr http.Header) {
		if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) &&
			hdr.Get("Retry-After") == "" {
			shedBare++
			logger.Printf("SHED CONTRACT VIOLATION: %d without Retry-After", status)
		}
	}

	post := func(body []byte, clientID string) (int, http.Header, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", clientID)
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return resp.StatusCode, resp.Header, data, err
	}

	// The canary seed is chosen so the evaluation survives server-side chaos
	// at the default -chaos 0.2 on its first attempt: fault draws are a pure
	// function of (seed, attempt), so a seed that fails every retry would
	// deterministically fail forever, never exercising the byte-identity
	// check. Seed 41's draw pattern is clean at serve scale.
	canaryBody, _ := json.Marshal(ScheduleRequest{
		Mix: "Jsb(4,2,2)", Seed: 41, Samples: 4, Mode: "rank", DeadlineMS: 10_000,
	})

	// fire posts one request asynchronously and classifies the answer. The
	// request bodies are drawn sequentially in the loop below, so the load
	// script stays a deterministic function of -soak-seed regardless of how
	// responses interleave.
	fire := func(isCanary bool, body []byte, clientID string) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			status, hdr, respBody, err := post(body, clientID)
			mu.Lock()
			defer mu.Unlock()
			sent++
			if err != nil {
				logger.Printf("transport error: %v", err)
				other++
				return
			}
			checkShed(status, hdr)
			switch {
			case isCanary && status == http.StatusOK:
				ok2xx++
				if canary == nil {
					canary = respBody
				} else if !bytes.Equal(canary, respBody) {
					logger.Printf("DETERMINISM VIOLATION: canary response changed\nfirst: %s\nnow:   %s", canary, respBody)
					detBroken = true
				}
			default:
				if c, okc := statuses[status]; okc {
					*c++
				} else if status == http.StatusBadRequest && !isCanary {
					bad4xx++
				} else {
					logger.Printf("unexpected status %d: %s", status, respBody)
					other++
				}
			}
		}()
	}

	for i := 0; time.Now().Before(deadline); i++ {
		if pace > 0 && i > 0 {
			time.Sleep(pace)
		}
		// Every 8th request is the canary; the rest are randomized load.
		if i%8 == 0 {
			fire(true, canaryBody, "canary")
			continue
		}
		sr := ScheduleRequest{
			Mix:        mixLabels[int(r.Uint64()%uint64(len(mixLabels)))],
			Seed:       r.Uint64() % 1000,
			Samples:    int(2 + r.Uint64()%4),
			Mode:       "rank",
			DeadlineMS: int64(200 + r.Uint64()%2000),
		}
		if r.Float64() < adaptive {
			// Expensive full-run requests: the overload soak's way of
			// offering more work than the evaluator can absorb.
			sr.Mode = "adaptive"
			sr.DeadlineMS = 30_000
		}
		if r.Float64() < poison {
			sr.Fault = &faults.Config{FailRate: 0.2}
		}
		body, _ := json.Marshal(sr)
		fire(false, body, fmt.Sprintf("load-%d", i%4))
	}
	wg.Wait()
	if detBroken {
		return exitInternal
	}

	logger.Printf("soak: sent=%d 200=%d 429=%d 503=%d 504=%d 400=%d other=%d",
		sent, ok2xx, shed429, unavail503, timeout504, bad4xx, other)
	if canary != nil {
		fmt.Fprintf(stdout, "canary sha256=%x\n", sha256.Sum256(canary))
	}
	switch {
	case other > 0:
		logger.Printf("soak FAILED: %d unexpected responses", other)
		return exitInternal
	case shedBare > 0:
		logger.Printf("soak FAILED: %d sheds without Retry-After", shedBare)
		return exitInternal
	case ok2xx == 0:
		logger.Printf("soak FAILED: no request ever succeeded")
		return exitInternal
	case canary == nil:
		logger.Printf("soak FAILED: canary never succeeded")
		return exitInternal
	}
	fmt.Fprintln(stdout, "soak passed")
	return exitOK
}
