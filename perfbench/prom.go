package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"symbios/internal/obs"
)

// promSample is one /metrics scrape: series → value, where a series is
// the sample name plus its label set exactly as exposed, for example
// `sosd_stage_seconds_sum{stage="queue"}`.
type promSample map[string]float64

// parseProm validates an exposition with obs.ParseText (every sample
// typed, every histogram complete) and returns its samples.
func parseProm(text []byte) (promSample, error) {
	if _, err := obs.ParseText(bytes.NewReader(text)); err != nil {
		return nil, fmt.Errorf("invalid exposition: %w", err)
	}
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// ParseText accepted the line, so it is `series value [timestamp]`
		// and the series has no spaces (label values here never do).
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(strings.TrimPrefix(f[1], "+"), 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses base's /metrics.
func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	s, err := parseProm(body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return s, nil
}

// delta returns after − before per series. A series absent before counts
// from zero (families register lazily); one absent after is dropped.
func delta(before, after promSample) promSample {
	out := promSample{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates o into s (summing one family across daemons).
func (s promSample) add(o promSample) {
	for k, v := range o {
		s[k] += v
	}
}

// family sums every series of the named sample over all its label sets:
// family("fleet_failovers_total") adds the per-backend counters.
func (s promSample) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
