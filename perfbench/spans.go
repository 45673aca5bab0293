package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"symbios/internal/obs"
)

// span is one timed interval of a traced run: the benchmark's own spans
// around calls into a layer, or a span the program's caller-supplied
// obs.Tracer recorded. Times are offsets from the run's start.
type span struct {
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Source string        `json:"source"` // "bench" or "tracer"
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs bracket calls for free.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin starts a benchmark span and returns the function that ends it.
func (l *spanLog) begin(name, detail string) func() {
	if l == nil {
		return func() {}
	}
	start := time.Since(l.t0)
	return func() {
		s := span{Name: name, Detail: detail, Start: start, Dur: time.Since(l.t0) - start, Source: "bench"}
		l.mu.Lock()
		l.spans = append(l.spans, s)
		l.mu.Unlock()
	}
}

// addTracer merges the JSONL an obs.Tracer wrote during the run.
func (l *spanLog) addTracer(jsonl []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	l.mu.Lock()
	defer l.mu.Unlock()
	for sc.Scan() {
		var ev obs.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("tracer record %q: %w", sc.Text(), err)
		}
		if ev.DurNS <= 0 {
			continue // point events carry no time
		}
		l.spans = append(l.spans, span{
			Name: ev.Name, Detail: ev.Detail, Source: "tracer",
			Start: time.Duration(ev.StartNS - l.t0.UnixNano()), Dur: time.Duration(ev.DurNS),
		})
	}
	return sc.Err()
}

// named returns the spans called name, in start order.
func (l *spanLog) named(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// save writes every span as JSONL, in start order, to dir/spans.jsonl
// and notes the file in r.
func (l *spanLog) save(r *report, dir string) error {
	l.mu.Lock()
	all := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	path := filepath.Join(dir, "spans.jsonl")
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", len(all), path))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTime is parent's duration minus the part of it that children cover
// (overlapping children count once; parts outside parent not at all).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.end(), parent.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.Dur - covered
}
