package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"
)

var testMixes = []string{"Jsb(4,2,2)", "Jsb(6,3,3)", "Jsb(8,4,4)"}

func TestOpenLoopScriptDeterministic(t *testing.T) {
	a := poissonScript(7, 3, missRequests(7, saltTimed, 50, testMixes, 4, 10))
	b := poissonScript(7, 3, missRequests(7, saltTimed, 50, testMixes, 4, 10))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different scripts")
	}
	for i := range a {
		if !bytes.Equal(a[i].Req.body(), b[i].Req.body()) {
			t.Fatalf("request %d: bodies differ", i)
		}
	}
	c := poissonScript(8, 3, missRequests(8, saltTimed, 50, testMixes, 4, 10))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same script")
	}
}

func TestPoissonScriptWindow(t *testing.T) {
	const rate, n = 4.0, 4000
	s := poissonScript(3, rate, make([]rankRequest, n))
	window := time.Duration(n / rate * float64(time.Second))
	for i := 1; i < n; i++ {
		if s[i].Due < s[i-1].Due {
			t.Fatalf("arrival %d before %d", i, i-1)
		}
	}
	if s[0].Due < 0 || s[n-1].Due >= window || s[n-1].Due < window*99/100 {
		t.Fatalf("arrivals span [%v, %v], want within [0, %v) reaching its end", s[0].Due, s[n-1].Due, window)
	}
	// Poisson gaps are exponential: their coefficient of variation is ~1.
	var sum, sq float64
	for i := 1; i < n; i++ {
		g := (s[i].Due - s[i-1].Due).Seconds()
		sum += g
		sq += g * g
	}
	mean := sum / (n - 1)
	cv := math.Sqrt(sq/(n-1)-mean*mean) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Fatalf("gap coefficient of variation %.3f, want ~1", cv)
	}
}

func TestMissRequestsStratifiedAndFresh(t *testing.T) {
	const per = 7 // samples 4..10
	reqs := missRequests(11, saltTimed, 2*len(testMixes)*per, testMixes, 4, 10)
	count := map[rankRequest]int{}
	seeds := map[uint64]bool{}
	for _, r := range reqs {
		count[rankRequest{Mix: r.Mix, Samples: r.Samples}]++
		if seeds[r.Seed] {
			t.Fatalf("seed %d repeats: fingerprint not fresh", r.Seed)
		}
		seeds[r.Seed] = true
	}
	if len(count) != len(testMixes)*per {
		t.Fatalf("%d combinations, want %d", len(count), len(testMixes)*per)
	}
	for k, c := range count {
		if c != 2 {
			t.Fatalf("%v drawn %d times, want 2", k, c)
		}
	}
	for _, w := range missRequests(11, saltWarm, 100, testMixes, 4, 10) {
		if seeds[w.Seed] {
			t.Fatalf("warm-up seed %d collides with the timed stream", w.Seed)
		}
	}
}

func TestZipfDrawsDeterministicAndSkewed(t *testing.T) {
	a := zipfDraws(5, saltTimed, 5000, 32, 1)
	if !reflect.DeepEqual(a, zipfDraws(5, saltTimed, 5000, 32, 1)) {
		t.Fatal("same seed gave different draws")
	}
	hits := make([]int, 32)
	for _, k := range a {
		hits[k]++
	}
	max, min := 0, len(a)
	for _, h := range hits {
		if h > max {
			max = h
		}
		if h < min {
			min = h
		}
	}
	// Zipf(1) over 32 keys: the top key gets ~24%, the last ~0.7%.
	if max < 8*min {
		t.Fatalf("draws not skewed: max %d min %d", max, min)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	script := []arrival{{Due: 0}, {Due: time.Millisecond}, {Due: 2 * time.Millisecond}}
	out := openLoop(context.Background(), time.Now(), script, 1, func(_ context.Context, _ int, o *outcome) {
		time.Sleep(5 * time.Millisecond)
		o.Status = 200
	})
	for i, o := range out {
		if o.Due != script[i].Due || o.Status != 200 {
			t.Fatalf("request %d: %+v", i, o)
		}
	}
	// One sender and 5 ms service: the third request waits for two
	// services, and its latency counts that wait.
	if out[2].lag() < 7*time.Millisecond || out[2].latency() < 12*time.Millisecond {
		t.Fatalf("third request lag %v latency %v: queueing in the generator not counted", out[2].lag(), out[2].latency())
	}
}
