package main

import (
	"math"
	"testing"
)

const scrapeBefore = `# HELP sosd_stage_seconds Latency of each pipeline stage.
# TYPE sosd_stage_seconds histogram
sosd_stage_seconds_bucket{stage="queue",le="0.1"} 1
sosd_stage_seconds_bucket{stage="queue",le="+Inf"} 2
sosd_stage_seconds_sum{stage="queue"} 0.25
sosd_stage_seconds_count{stage="queue"} 2
# HELP fleet_failovers_total Failovers.
# TYPE fleet_failovers_total counter
fleet_failovers_total{backend="http://a"} 1
fleet_failovers_total{backend="http://b"} 0
# HELP sosd_http_request_seconds Requests.
# TYPE sosd_http_request_seconds histogram
sosd_http_request_seconds_bucket{le="+Inf"} 4
sosd_http_request_seconds_sum 0.5
sosd_http_request_seconds_count 4
`

const scrapeAfter = `# HELP sosd_stage_seconds Latency of each pipeline stage.
# TYPE sosd_stage_seconds histogram
sosd_stage_seconds_bucket{stage="queue",le="0.1"} 1
sosd_stage_seconds_bucket{stage="queue",le="+Inf"} 6
sosd_stage_seconds_sum{stage="queue"} 1.45
sosd_stage_seconds_count{stage="queue"} 6
# HELP fleet_failovers_total Failovers.
# TYPE fleet_failovers_total counter
fleet_failovers_total{backend="http://a"} 3
fleet_failovers_total{backend="http://b"} 2
# HELP sosd_http_request_seconds Requests.
# TYPE sosd_http_request_seconds histogram
sosd_http_request_seconds_bucket{le="+Inf"} 14
sosd_http_request_seconds_sum 2.5
sosd_http_request_seconds_count 14
# HELP sosd_cache_hits_total Hits.
# TYPE sosd_cache_hits_total counter
sosd_cache_hits_total 7
`

func mustParse(t *testing.T, text string) promSample {
	t.Helper()
	s, err := parseProm([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPromDeltaHistogram(t *testing.T) {
	d := delta(mustParse(t, scrapeBefore), mustParse(t, scrapeAfter))
	for _, c := range []struct {
		series string
		want   float64
	}{
		{`sosd_stage_seconds_sum{stage="queue"}`, 1.2},
		{`sosd_stage_seconds_count{stage="queue"}`, 4},
		{`sosd_stage_seconds_bucket{stage="queue",le="+Inf"}`, 4},
		{"sosd_http_request_seconds_sum", 2},
		{"sosd_http_request_seconds_count", 10},
		{`sosd_stage_seconds_sum{stage="retry"}`, 0}, // never exposed
	} {
		if got := d[c.series]; !near(got, c.want) {
			t.Errorf("delta %s = %g, want %g", c.series, got, c.want)
		}
	}
}

func TestPromDeltaCounters(t *testing.T) {
	d := delta(mustParse(t, scrapeBefore), mustParse(t, scrapeAfter))
	if got := d.family("fleet_failovers_total"); got != 4 {
		t.Errorf("failover family delta = %g, want 4", got)
	}
	if got := d["sosd_cache_hits_total"]; got != 7 {
		t.Errorf("lazily registered counter delta = %g, want 7", got)
	}
	// family matches whole names, not prefixes of longer names.
	if got := d.family("fleet_failovers"); got != 0 {
		t.Errorf("prefix family = %g, want 0", got)
	}
	sum := promSample{}
	sum.add(d)
	sum.add(d)
	if got := sum.family("fleet_failovers_total"); got != 8 {
		t.Errorf("summed across daemons = %g, want 8", got)
	}
}

func TestPromRejectsInvalidExposition(t *testing.T) {
	for name, text := range map[string]string{
		"untyped":           "foo 1\n",
		"histogram no +Inf": "# TYPE h histogram\nh_sum 1\nh_count 1\n",
		"bad value":         "# TYPE c counter\nc one\n",
	} {
		if _, err := parseProm([]byte(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
