package main

import (
	"bytes"
	"testing"
	"time"

	"symbios/internal/obs"
)

func sp(start, dur int) span {
	return span{Start: time.Duration(start), Dur: time.Duration(dur)}
}

func TestSelfTime(t *testing.T) {
	parent := sp(100, 100) // [100, 200)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{sp(110, 10), sp(150, 20)}, 70},
		{"overlapping count once", []span{sp(110, 30), sp(120, 30)}, 60},
		{"clipped to parent", []span{sp(50, 70), sp(190, 50)}, 70},
		{"outside", []span{sp(0, 50), sp(300, 10)}, 100},
		{"covering", []span{sp(0, 500)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanLogMergesTracer(t *testing.T) {
	l := newSpanLog()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, nil)
	end := tr.Span("sos/sample", "Jsb(4,2,2)")
	time.Sleep(time.Millisecond)
	end()
	tr.Event("retry")
	l.begin("fig1/sweep", "")()
	if err := l.addTracer(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got := l.named("sos/sample")
	if len(got) != 1 || got[0].Detail != "Jsb(4,2,2)" || got[0].Dur < time.Millisecond || got[0].Source != "tracer" {
		t.Fatalf("tracer span not merged: %+v", got)
	}
	if n := len(l.named("retry")); n != 0 {
		t.Fatalf("point event kept as a span (%d)", n)
	}
	if n := len(l.named("fig1/sweep")); n != 1 {
		t.Fatalf("bench span count %d", n)
	}
	var nilLog *spanLog
	nilLog.begin("x", "")() // must not panic
}
