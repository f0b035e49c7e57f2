package gating

import (
	"fmt"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
)

// builtinSchemes constructs one instance of every built-in scheme.
func builtinSchemes(cfg config.Config) []Scheme {
	return []Scheme{
		NewNone(cfg), NewDCG(cfg), NewOracle(cfg), NewLector(cfg), NewDDCG(cfg),
		NewDCGDDCG(cfg), NewPLB(cfg, DefaultPLBParams(), false),
		NewPLB(cfg, DefaultPLBParams(), true), NewDCGPLB(cfg, DefaultPLBParams()),
	}
}

// schemeState renders the activity counters a scheme reports.
func schemeState(s Scheme) string {
	switch s := s.(type) {
	case *DCG:
		return fmt.Sprintf("%+v lead=%d", s.Stats(), s.LeadViolations)
	case *Oracle:
		return fmt.Sprintf("%+v lead=%d", s.Stats(), s.LeadViolations())
	case *DDCG:
		return fmt.Sprintf("%+v", s.Stats())
	case *DCGDDCG:
		return fmt.Sprintf("%+v lead=%d", s.Stats(), s.LeadViolations())
	case *PLB:
		return fmt.Sprintf("%v transitions=%d", s.ModeCycles(), s.Transitions())
	case *DCGPLB:
		return fmt.Sprintf("%v transitions=%d lead=%d", s.ModeCycles(), s.Transitions(), s.LeadViolations())
	}
	return ""
}

// TestQuietRunsMatchPerCycle drives two instances of every built-in scheme
// through the same cycles, and one of them takes the quiet runs through
// QuietLimits and the accountant's OnQuiet, the other cycle by cycle. The
// first run starts with work in DCG's schedule rings and is longer than
// PLB's window; the second starts with fetches in the oracle's history and
// empty rings. The tallies and the schemes' counters must agree exactly.
func TestQuietRunsMatchPerCycle(t *testing.T) {
	for _, cfg := range []config.Config{config.Default(), config.Deep()} {
		stages := cfg.BackEndLatchStages()
		bulk, step := builtinSchemes(cfg), builtinSchemes(cfg)
		for i := range bulk {
			model, err := power.NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := bulk[i], step[i]
			acctA, acctB := power.NewAccountant(model, a), power.NewAccountant(model, b)
			c := uint64(0)

			// busy runs n cycles that fetch, the first issuing of them
			// one instruction each: an ALU op, or a load whose port and
			// result bus come 3 and 20 cycles later.
			busy := func(n, issuing uint64) {
				for end := c + n; c < end; c++ {
					u := &cpu.Usage{
						Cycle: c, FetchCount: 4, WindowOccupancy: 20,
						BackLatch: make([]int, stages), BackLatchNewVal: make([]int, stages),
					}
					fb := cpu.CycleFeedback{}
					if c < end-n+issuing {
						ev := cpu.IssueEvent{Cycle: c, FUType: cpu.FUIntALU, FUIdx: int(c % 2),
							FUStart: c + 2, FULat: 1, WritesReg: true, ResultBusCycle: c + 4}
						if c%5 == 4 {
							ev = cpu.IssueEvent{Cycle: c, FUIdx: -1, IsLoad: true, DPortCycle: c + 3,
								WritesReg: true, ResultBusCycle: c + 20}
						}
						a.OnIssue(ev)
						b.OnIssue(ev)
						u.IssueCount, u.IntALUBusy, fb.Issued = 1, 1, 1
						u.BackLatch[0], u.BackLatchNewVal[0] = 1, 1
					}
					a.Limits(c, fb)
					b.Limits(c, fb)
					acctA.OnCycle(u)
					acctB.OnCycle(u)
				}
			}
			quiet := func(n uint64) {
				u := &cpu.Usage{
					WindowOccupancy: 13,
					BackLatch:       make([]int, stages), BackLatchNewVal: make([]int, stages),
				}
				for end := c + n; c < end; {
					k := a.(cpu.QuietThrottle).QuietLimits(c, end-c)
					for i := uint64(0); i < k; i++ {
						b.Limits(c+i, cpu.CycleFeedback{})
					}
					if k == 0 { // PLB's decision cycle
						a.Limits(c, cpu.CycleFeedback{})
						b.Limits(c, cpu.CycleFeedback{})
						k = 1
					}
					u.Cycle = c
					acctA.OnQuiet(u, k)
					if u.Cycle != c {
						t.Fatalf("%s: OnQuiet left the usage at cycle %d, want %d", a.Name(), u.Cycle, c)
					}
					for i := uint64(0); i < k; i++ {
						u.Cycle = c + i
						acctB.OnCycle(u)
					}
					c += k
				}
			}
			busy(10, 10)
			quiet(600)
			busy(30, 5)
			quiet(100)
			busy(3, 3)

			if acctA.Tally != acctB.Tally {
				t.Errorf("%s on %d stages: tally\nbulk  %+v\nsteps %+v", a.Name(), stages, acctA.Tally, acctB.Tally)
			}
			if sa, sb := schemeState(a), schemeState(b); sa != sb {
				t.Errorf("%s on %d stages: counters\nbulk  %s\nsteps %s", a.Name(), stages, sa, sb)
			}
		}
	}
}
