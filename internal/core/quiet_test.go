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
// the Result, the core statistics and PLB's mode cycles, and a capture
// must write the same trace bytes.
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
		slow := NewSimulator(m.cfg)
		slow.Warmup = 5_000
		slow.Telemetry = stepEveryCycle{}
		for _, bench := range []string{"mcf", "lucas", "gcc"} {
			for _, kind := range AllSchemes() {
				label := m.name + "/" + bench + "/" + string(kind)
				var a, b *Result
				if TimingNeutral(kind) {
					var ta, tb *Timing
					a, ta = captureOn(t, fast, label, bench, kind, insts)
					b, tb = captureOn(t, slow, label, bench, kind, insts)
					var ba, bb bytes.Buffer
					ta.Trace.WriteTo(&ba)
					tb.Trace.WriteTo(&bb)
					if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
						t.Errorf("%s: fast-forwarded trace differs from the per-cycle one", label)
					}
				} else {
					a = runOn(t, fast, label, bench, kind, insts)
					b = runOn(t, slow, label, bench, kind, insts)
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
