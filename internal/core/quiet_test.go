package core

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"reflect"
	"strings"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// stepEveryCycle is run telemetry that records nothing. Installing any
// telemetry wraps the run's scheme in gating.Observed, which takes no runs
// of quiet cycles, so the core steps every cycle.
type stepEveryCycle struct{}

func (stepEveryCycle) OnCycle(*cpu.Usage)              {}
func (stepEveryCycle) OnGates(uint64, power.GateState) {}

// TestQuietSkipMatchesPerCycle holds the quiet-cycle fast-forward to the
// cycle-by-cycle run it replaces: for every registered scheme on four
// machines (the 6-wide and 37-entry-window ones make PLB's width fraction
// and the oracle's occupancy fraction inexact in binary), a run that
// fast-forwards and one that steps every cycle must agree bit for bit on
// the Result, the core statistics and PLB's mode cycles. A timing-neutral
// scheme's fast side is a capture and its evaluation, and that capture
// must write the same trace bytes, and build the same packed view, as a
// capture that steps every cycle.
func TestQuietSkipMatchesPerCycle(t *testing.T) {
	const insts = 10_000
	sixWide := config.Default()
	sixWide.IssueWidth = 6
	win37 := config.Default()
	win37.IssueWidth, win37.WindowSize = 4, 37
	machines := []struct {
		name string
		cfg  config.Config
	}{
		{"table1", config.Default()},
		{"6wide", sixWide},
		{"4wide-win37", win37},
		{"deep", config.Deep()},
	}
	for _, m := range machines {
		fast := NewSimulator(m.cfg)
		fast.Warmup = 5_000
		for _, bench := range []string{"mcf", "lucas", "gcc"} {
			stepped := steppedCapture(t, fast, bench, insts)
			for _, kind := range AllSchemes() {
				label := m.name + "/" + bench + "/" + string(kind)
				var a *Result
				if TimingNeutral(kind) {
					var ta *Timing
					a, ta = captureOn(t, fast, label, bench, kind, insts)
					var ba, bb bytes.Buffer
					ta.Trace.WriteTo(&ba)
					stepped.Trace.WriteTo(&bb)
					if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
						t.Errorf("%s: fast-forwarded trace differs from the per-cycle one", label)
					}
					if !reflect.DeepEqual(ta.CPUStats, stepped.CPUStats) {
						t.Errorf("%s: capture statistics differ from the per-cycle capture's", label)
					}
					va, _ := ta.Trace.Decode()
					vb, _ := stepped.Trace.Decode()
					if !reflect.DeepEqual(va, vb) {
						t.Errorf("%s: fast-forwarded packed view differs from the per-cycle one", label)
					}
				} else {
					a = runOn(t, fast, label, bench, kind, insts)
				}
				b, err := fast.RunBenchmarkTelemetry(context.Background(), bench, kind, insts, stepEveryCycle{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitIdentical(t, label, b, a)
				if !reflect.DeepEqual(a.CPUStats, b.CPUStats) {
					t.Errorf("%s: core statistics differ:\nfast %+v\nslow %+v", label, a.CPUStats, b.CPUStats)
				}
				if !maps.Equal(a.PLBModeCycles, b.PLBModeCycles) {
					t.Errorf("%s: PLB mode cycles %v, per-cycle %v", label, a.PLBModeCycles, b.PLBModeCycles)
				}
			}
		}
	}
}

func captureOn(t *testing.T, sim *Simulator, label, bench string, kind SchemeKind, insts uint64) (*Result, *Timing) {
	t.Helper()
	res, tm, err := sim.RunAndCapture(context.Background(), bench, kind, insts, usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res, tm
}

// steppedCapture records bench with the latchvalue channel as a capture
// does, the Recorder the core's only observer and issue listener, but
// under a throttle that takes no runs of quiet cycles, so the core steps
// every cycle.
func steppedCapture(t *testing.T, sim *Simulator, bench string, insts uint64) *Timing {
	t.Helper()
	src, prepare, err := sim.benchSources(bench, insts)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Machine()
	c, err := cpu.New(m, src)
	if err != nil {
		t.Fatal(err)
	}
	// Embedding the fixed throttle as a Throttle hides its QuietLimits.
	c.SetThrottle(struct{ cpu.Throttle }{cpu.NewFixedThrottle(cpu.FullLimits(
		m.IssueWidth, m.DL1.Ports, m.FU.IntALU, m.FU.IntMult, m.FU.FPALU, m.FU.FPMult))})
	rec, err := usagetrace.NewRecorder(src.Name(), m.BackEndLatchStages(), usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(rec)
	c.SetIssueListener(rec)
	tm, err := sim.execute(context.Background(), c, src.Name(), prepare, "stepped capture")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Trace, err = rec.Trace(); err != nil {
		t.Fatal(err)
	}
	return tm
}

func runOn(t *testing.T, sim *Simulator, label, bench string, kind SchemeKind, insts uint64) *Result {
	t.Helper()
	res, err := sim.RunBenchmark(bench, kind, insts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res
}

// TestCancelStaysPromptWhileFastForwarding: a run that restores its warm-up
// polls cancellation only in the cycle loop, every 4096 cycles. A context
// that cancels on the fourth poll must stop mcf, which spends most of its
// cycles fast-forwarding, at cycle 3*4096: no skip may start on a poll's
// cycle or run past one.
func TestCancelStaysPromptWhileFastForwarding(t *testing.T) {
	sim := NewSimulator(config.Default())
	sim.Warmup = 5_000
	if _, _, err := sim.RunAndCapture(context.Background(), "mcf", SchemeDCG, 1_000); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: 3}
	_, _, err := sim.RunAndCapture(ctx, "mcf", SchemeDCG, 20_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at cycle 12288 ") {
		t.Errorf("err = %v, want a cancellation at cycle 12288", err)
	}
}
