package usagetrace

import (
	"strings"
	"testing"

	"dcg/internal/cpu"
)

// listThrottle returns its limits in turn, one per Limits call, and takes
// any quiet run.
type listThrottle struct {
	limits []cpu.Limits
	calls  int
}

func (l *listThrottle) Limits(uint64, cpu.CycleFeedback) cpu.Limits {
	l.calls++
	return l.limits[l.calls-1]
}

func (l *listThrottle) QuietLimits(_, n uint64) uint64 { return n }

// TestThrottledViewSumsByLimits: a view-only Recorder in front of a
// throttle sums each cycle's usage, quiet runs included, under the Limits
// the throttle last returned, keeps the limits in cycle order for the
// issue-width fraction, and, told the machine's D-ports, builds the
// over-capacity D-port plane; it refuses a cycle before the throttle's
// first Limits, and a Recorder that encodes bytes refuses a throttle.
func TestThrottledViewSumsByLimits(t *testing.T) {
	narrow := cpu.Limits{IssueWidth: 4, DPorts: 1, IntALU: 2, IntMult: 1, FPALU: 1, FPMult: 1}
	wide := cpu.Limits{IssueWidth: 8, DPorts: 2, IntALU: 6, IntMult: 2, FPALU: 4, FPMult: 4}
	th := &listThrottle{limits: []cpu.Limits{narrow, wide}}
	rec, err := NewViewRecorder("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetThrottle(th)
	rec.SetDPorts(2)
	usage := func(cycle uint64) *cpu.Usage {
		return &cpu.Usage{Cycle: cycle, BackLatch: make([]int, 2)}
	}
	rec.Limits(0, cpu.CycleFeedback{})
	u := usage(0)
	u.IntALUBusy, u.BackLatch[0], u.DPortUsed, u.ResultBus = 0b100, 5, 3, 1
	rec.OnCycle(u)
	rec.OnQuiet(usage(1), 3)
	rec.Limits(4, cpu.CycleFeedback{})
	rec.OnCycle(usage(4))
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	want := []LimitsSums{
		{Limits: narrow, UnitOn: [cpu.NumFUTypes]int64{3 + 3*2, 4, 4, 4},
			LatchOn: 5 + 4 + 3*8, DPortOn: 3 + 3*1, BusOn: 4 * 4},
		{Limits: wide, UnitOn: [cpu.NumFUTypes]int64{6, 2, 4, 4}, LatchOn: 16, DPortOn: 2, BusOn: 8},
	}
	got := p.Limits()
	if len(got) != len(want) {
		t.Fatalf("%d limits entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if f := p.IssueWidthFracSum(8); f != 3 {
		t.Errorf("issue-width fraction sum %v, want 4 cycles of 0.5 and one of 1", f)
	}
	over, err := p.OverFullDPorts(2)
	if err != nil || p.ViolationCycles(over) != 1 {
		t.Errorf("over-capacity D-port plane %v (err %v), want cycle 0 alone", over, err)
	}

	early, _ := NewViewRecorder("x", 2)
	early.SetThrottle(th)
	early.OnCycle(usage(0))
	if _, err := early.Trace(); err == nil || !strings.Contains(err.Error(), "first limits") {
		t.Errorf("a cycle before the first Limits: err = %v", err)
	}
	encoding, _ := NewRecorder("x", 2)
	encoding.SetThrottle(th)
	if _, err := encoding.Trace(); err == nil || !strings.Contains(err.Error(), "view-only") {
		t.Errorf("a throttled Recorder that encodes bytes: err = %v", err)
	}
}
