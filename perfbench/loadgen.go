package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"symbios/internal/rng"
)

// Seed salts keep the request streams of one workload seed disjoint: the
// timed window, the unmeasured warm-up and the hot set never share a
// fingerprint.
const (
	saltTimed   = 0xbe7c1
	saltWarm    = 0xbe7c2
	saltHotKey  = 0xbe7c3
	saltArrival = 0xbe7c4
	saltOrder   = 0xbe7c5
	saltZipf    = 0xbe7c6
	saltOracle  = 0xbe7c7
)

// rankRequest is the /v1/schedule body the benchmark sends.
type rankRequest struct {
	Mix     string `json:"mix"`
	Seed    uint64 `json:"seed"`
	Samples int    `json:"samples"`
}

func (r rankRequest) body() []byte {
	b, err := json.Marshal(r)
	if err != nil { // a struct of strings and ints: cannot happen
		panic(err)
	}
	return b
}

// arrival is one scripted request: when it is due, relative to the start
// of the window, and what it asks.
type arrival struct {
	Due time.Duration
	Req rankRequest
}

// missRequests draws n distinct rank requests stratified over mixes ×
// sample counts [sMin, sMax]: every block of len(mixes)·(sMax−sMin+1)
// requests holds each combination once, in a seeded order, so two seeds
// differ in order and fingerprints but not in the mix of work. salt
// separates the timed stream from the warm-up stream.
func missRequests(seed, salt uint64, n int, mixes []string, sMin, sMax int) []rankRequest {
	per := sMax - sMin + 1
	combos := len(mixes) * per
	order := rng.New(rng.Hash2(seed, salt, saltOrder))
	out := make([]rankRequest, 0, n)
	for len(out) < n {
		for _, c := range order.Perm(combos) {
			if len(out) == n {
				break
			}
			out = append(out, rankRequest{
				Mix:     mixes[c/per],
				Samples: sMin + c%per,
				Seed:    rng.Hash2(seed, uint64(len(out)), salt),
			})
		}
	}
	return out
}

// poissonScript schedules reqs as a Poisson process at rate per second,
// conditioned on all of them arriving within len(reqs)/rate seconds: the
// due times are that many uniform draws over the window, sorted. The
// window, and so the offered load, is then the same for every seed, while
// the burstiness is Poisson's.
func poissonScript(seed uint64, rate float64, reqs []rankRequest) []arrival {
	r := rng.New(rng.Hash2(seed, saltArrival, 0))
	window := float64(len(reqs)) / rate * float64(time.Second)
	due := make([]time.Duration, len(reqs))
	for i := range due {
		due[i] = time.Duration(r.Float64() * window)
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	out := make([]arrival, len(reqs))
	for i, q := range reqs {
		out[i] = arrival{Due: due[i], Req: q}
	}
	return out
}

// hotSet is the serve-hot working set: k fingerprints cycling over mixes
// at a fixed sample count.
func hotSet(seed uint64, k int, mixes []string, samples int) []rankRequest {
	out := make([]rankRequest, k)
	for i := range out {
		out[i] = rankRequest{Mix: mixes[i%len(mixes)], Samples: samples, Seed: rng.Hash2(seed, uint64(i), saltHotKey)}
	}
	return out
}

// zipfDraws draws n hot-set indices in [0, k) with Zipf(s) popularity;
// which key holds which popularity rank is itself seeded. salt separates
// the timed draw from the warm-up draw.
func zipfDraws(seed, salt uint64, n, k int, s float64) []int {
	r := rng.New(rng.Hash2(seed, salt, saltZipf))
	rankToKey := r.Perm(k)
	cdf := make([]float64, k)
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	out := make([]int, n)
	for i := range out {
		u := r.Float64() * total
		out[i] = rankToKey[sort.SearchFloat64s(cdf, u)]
	}
	return out
}

// outcome is one request's fate. Times are offsets from the window start;
// in a closed loop a request is due when it is sent.
type outcome struct {
	Due, Sent, Done time.Duration
	Status          int
	Header          http.Header
	Body            []byte
	Err             error
}

func (o outcome) latency() time.Duration { return o.Done - o.Due }
func (o outcome) lag() time.Duration     { return o.Sent - o.Due }

// poster sends bodies to one URL over a client limited to the generator's
// connection budget.
type poster struct {
	client *http.Client
	url    string
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends body and fills the reply fields of o.
func (p poster) post(ctx context.Context, body []byte, o *outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		o.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		o.Err = err
		return
	}
	defer resp.Body.Close()
	o.Body, o.Err = io.ReadAll(resp.Body)
	o.Status, o.Header = resp.StatusCode, resp.Header
}

// openLoop plays script from start on conns sending goroutines. Each
// sender takes the next request in due order, sleeps until it is due and
// sends it; a request whose senders are all busy goes out late, and its
// latency still counts from when it was due.
func openLoop(ctx context.Context, start time.Time, script []arrival, conns int, send func(ctx context.Context, i int, o *outcome)) []outcome {
	out := make([]outcome, len(script))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(script) {
					return
				}
				o := &out[i]
				o.Due = script[i].Due
				if d := time.Until(start.Add(o.Due)); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						o.Err = ctx.Err()
						continue
					}
				}
				o.Sent = time.Since(start)
				send(ctx, i, o)
				o.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends requests 0..n−1 from clients goroutines, each sending
// its next request as soon as its previous reply is in.
func closedLoop(ctx context.Context, n, clients int, send func(ctx context.Context, i int, o *outcome)) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &out[i]
				if err := ctx.Err(); err != nil {
					o.Err = err
					continue
				}
				o.Sent = time.Since(start)
				o.Due = o.Sent
				send(ctx, i, o)
				o.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}
