package cpu

import "testing"

type recordingObserver struct {
	cycles []uint64
	shared *Usage
}

func (r *recordingObserver) OnCycle(u *Usage) {
	r.cycles = append(r.cycles, u.Cycle)
	r.shared = u
}

func TestMultiObserverFansOutSameBuffer(t *testing.T) {
	a, b := &recordingObserver{}, &recordingObserver{}
	m := MultiObserver{a, b}
	u := &Usage{BackLatch: make([]int, 5)}
	for cyc := uint64(0); cyc < 3; cyc++ {
		u.Cycle = cyc
		m.OnCycle(u)
	}
	for _, r := range []*recordingObserver{a, b} {
		if len(r.cycles) != 3 || r.cycles[2] != 2 {
			t.Fatalf("observer saw cycles %v, want [0 1 2]", r.cycles)
		}
		if r.shared != u {
			t.Fatal("observer did not receive the shared reused buffer")
		}
	}
}
