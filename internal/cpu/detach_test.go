package cpu

import (
	"testing"

	"symbios/internal/arch"
	"symbios/internal/trace"
)

// TestDetachInflightPurge detaches a thread at a point where both queues
// hold a mix of contexts and some of the victim's instructions have
// already issued or completed (a partially drained pipeline), and checks
// that purge compacts the queues in place: survivors keep their age order,
// every victim entry is gone, and the rename-register accounting matches
// the survivor's in-flight window exactly.
func TestDetachInflightPurge(t *testing.T) {
	cfg := arch.Default21264(3)
	c := mustCore(t, cfg)
	c.Attach(0, mkSource(t, "GCC", 21, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "FP", 22, 1), 0, nil, 1)
	c.Attach(2, mkSource(t, "MG", 23, 2), 0, nil, 2)

	// Find a cycle where the victim has entries in both queues while other
	// work is in flight, so the purge exercises the interleaved case.
	countCtx := func(q []qent, ctx int) int {
		n := 0
		for _, e := range q {
			if int(e.gi)>>c.winShift == ctx {
				n++
			}
		}
		return n
	}
	const victim = 1
	found := false
	for i := 0; i < 50_000; i++ {
		c.Run(1)
		if countCtx(c.intQ, victim) > 0 && countCtx(c.fpQ, victim) > 0 &&
			len(c.intQ) > countCtx(c.intQ, victim) && c.tCount[victim] > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("never reached a mixed-queue in-flight state; workload too tame for the test")
	}

	// Expected survivors: the non-victim entries in their current order.
	var wantInt, wantFP []qent
	for _, e := range c.intQ {
		if int(e.gi)>>c.winShift != victim {
			wantInt = append(wantInt, e)
		}
	}
	for _, e := range c.fpQ {
		if int(e.gi)>>c.winShift != victim {
			wantFP = append(wantFP, e)
		}
	}

	resume, committed := c.Detach(victim)
	if resume < committed {
		t.Fatalf("resume seq %d < committed %d", resume, committed)
	}
	check := func(name string, got, want []qent) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries after purge, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: got %+v want %+v (order not preserved)", name, i, got[i], want[i])
			}
		}
		for _, e := range got {
			if int(e.gi)>>c.winShift == victim {
				t.Fatalf("%s still holds victim entry %+v", name, e)
			}
		}
	}
	check("intQ", c.intQ, wantInt)
	check("fpQ", c.fpQ, wantFP)

	// Register accounting: free counts must equal the totals minus what the
	// surviving windows still hold.
	wantIntFree, wantFPFree := cfg.IntRenameRegs, cfg.FPRenameRegs
	for ctx := 0; ctx < cfg.Contexts; ctx++ {
		if !c.tLive[ctx] {
			continue
		}
		base := ctx << c.winShift
		for i := 0; i < c.tCount[ctx]; i++ {
			if c.uOp[base|((c.tHead[ctx]+i)&c.winMask)].IsFP() {
				wantFPFree--
			} else {
				wantIntFree--
			}
		}
	}
	if c.intRegsFree != wantIntFree || c.fpRegsFree != wantFPFree {
		t.Fatalf("register leak after detach: int %d want %d, fp %d want %d",
			c.intRegsFree, wantIntFree, c.fpRegsFree, wantFPFree)
	}

	// The core must keep simulating and the detached slot must be reusable.
	before := c.Snapshot().Committed
	c.Run(5_000)
	if c.Snapshot().Committed == before {
		t.Fatal("no progress after in-flight detach")
	}
	c.Attach(victim, mkSource(t, "FP", 22, 1), resume, nil, victim)
	c.Run(5_000)
	if c.tCommitted[victim] == 0 {
		t.Fatal("reattached thread made no progress")
	}
}

// fillLog is a Source that records the sequence number of every Fill.
type fillLog struct {
	Source
	fills []uint64
}

func (f *fillLog) Fill(seq uint64, dst []trace.Inst) {
	f.fills = append(f.fills, seq)
	f.Source.Fill(seq, dst)
}

// TestAttachEmptiesFetchRing: a context re-attached to a different stream
// at a sequence number inside the previous stream's decoded window must
// fetch from the new stream — Attach empties the ring, so the first fetch
// refills it from the new source at the resume point.
func TestAttachEmptiesFetchRing(t *testing.T) {
	c := mustCore(t, arch.Default21264(1))
	c.Attach(0, mkSource(t, "GCC", 31, 0), 0, nil, 0)
	c.Run(5_000)
	resume, _ := c.Detach(0)
	if c.tRingLen[0] == 0 || resume < c.tRingBase[0] || resume >= c.tRingBase[0]+c.tRingLen[0] {
		t.Fatalf("resume %d outside the old ring window [%d,+%d); the test needs it inside",
			resume, c.tRingBase[0], c.tRingLen[0])
	}
	next := &fillLog{Source: mkSource(t, "FP", 32, 1)}
	c.Attach(0, next, resume, nil, 0)
	c.Run(1)
	if len(next.fills) == 0 || next.fills[0] != resume {
		t.Fatalf("new stream filled at %v, want a first fill at the resume point %d", next.fills, resume)
	}
}
