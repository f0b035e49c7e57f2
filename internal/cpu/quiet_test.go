package cpu_test

import (
	"testing"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

// quietCounter counts the cycles it is handed, and how many of them came
// in runs (OnQuiet) rather than one at a time.
type quietCounter struct{ cycles, quiet uint64 }

func (q *quietCounter) OnCycle(*cpu.Usage) { q.cycles++ }

func (q *quietCounter) OnQuiet(_ *cpu.Usage, n uint64) {
	q.cycles += n
	q.quiet += n
}

// runMcf runs mcf on the Table 1 machine (5k-instruction warm-up, 20k
// measured) with scheme as throttle and issue listener (nil: the fixed
// throttle) and returns what a counting observer saw.
func runMcf(t *testing.T, scheme gating.Scheme) quietCounter {
	t.Helper()
	prof, _ := workload.ByName("mcf")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(config.Default(), trace.NewLimitSource(gen, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	c.Warm(trace.NewLimitSource(gen, 5_000), ^uint64(0))
	if scheme != nil {
		c.SetThrottle(scheme)
		c.SetIssueListener(scheme)
	}
	var q quietCounter
	c.SetObserver(cpu.MultiObserver{&q})
	cycles, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if q.cycles != cycles {
		t.Fatalf("observer saw %d cycles, the run took %d", q.cycles, cycles)
	}
	return q
}

// TestQuietCyclesArriveInRuns pins that the fast-forward is taken: mcf is
// ~87% quiet, and under the fixed throttle and under every built-in scheme
// at least 80% of its cycles must reach the observer as runs. A throttle
// wrapper that drops QuietLimits (telemetry's gating.Observed) must step
// every cycle instead.
func TestQuietCyclesArriveInRuns(t *testing.T) {
	const minShare = 0.80
	check := func(label string, scheme gating.Scheme) {
		q := runMcf(t, scheme)
		share := float64(q.quiet) / float64(q.cycles)
		t.Logf("%s: %.1f%% of %d cycles in runs", label, 100*share, q.cycles)
		if share < minShare {
			t.Errorf("%s: %d of %d cycles (%.1f%%) arrived in runs, want >= %.0f%%",
				label, q.quiet, q.cycles, 100*share, 100*minShare)
		}
	}
	check("fixed throttle", nil)
	sim := core.NewSimulator(config.Default())
	for _, info := range core.Schemes() {
		check(string(info.Kind), info.New(sim))
		if q := runMcf(t, gating.Observed{Scheme: info.New(sim)}); q.quiet != 0 {
			t.Errorf("%s under gating.Observed: %d cycles arrived in runs, want 0", info.Kind, q.quiet)
		}
	}
}
