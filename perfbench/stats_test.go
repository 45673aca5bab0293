package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 90, 90, 10},
		{101, 90, 91, 10},
		{1000, 99, 990, 10},
		{20, 50, 10, 10},
	}
	for _, c := range cases {
		v, beyond, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("p%g of %d: %v", c.p, c.n, err)
		}
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of %d = %g (%d beyond), want %g (%d beyond)", c.p, c.n, v, beyond, c.want, c.wantBeyond)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{99, 90}, {999, 99}, {19, 50}, {5, 50}, {0, 50}} {
		if v, beyond, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d reported %g with %d beyond; want a refusal", c.p, c.n, v, beyond)
		}
	}
	if _, _, err := percentile(seq(200), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := seq(100)
	if _, _, err := percentile(xs, 90); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 100 || xs[99] != 1 {
		t.Fatalf("input reordered: %v ... %v", xs[0], xs[99])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median is not NaN")
	}
}
