package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dcg/internal/config"
	"dcg/internal/gating"
)

// plbKernelMatchesLive checks the PLB family on one machine and benchmark:
// plb-orig and plb-ext each captured under their own throttle, and
// dcg+plb evaluated on plb-ext's capture, must each be DeepEqual to the
// scheme's live RunBenchmarkContext Result — PLBModeCycles,
// LeadViolations, GateViolations and the unexported all-on vector
// included — or both paths must fail alike. It returns how many schemes
// both paths served.
func plbKernelMatchesLive(t *testing.T, name string, cfg config.Config, warmup uint64, bench string, insts uint64) (served int) {
	t.Helper()
	sim := NewSimulator(cfg)
	sim.Warmup = warmup
	ctx := context.Background()
	var extTiming *Timing
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt, SchemeDCGPLB} {
		want, liveErr := sim.RunBenchmarkContext(ctx, bench, kind, insts)
		var got *Result
		var err error
		if kind == SchemeDCGPLB && extTiming != nil {
			var res []*Result
			if res, err = sim.EvaluateTimingAll(extTiming, []SchemeKind{kind}); err == nil {
				got = res[0]
			}
		} else {
			var tm *Timing
			got, tm, err = sim.RunAndCapture(ctx, bench, kind, insts)
			if kind == SchemePLBExt {
				extTiming = tm
			}
		}
		if (liveErr != nil) != (err != nil) {
			t.Fatalf("%s/%s/%s: live run error %v, kernel error %v", name, bench, kind, liveErr, err)
		}
		if err != nil {
			continue
		}
		served++
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s/%s: kernel Result differs from the live run:\n got %+v\nwant %+v",
				name, bench, kind, got, want)
		}
	}
	return served
}

// TestFamilyPassMatchesSingleLaneRuns is the PLB family's golden: on all
// 16 benchmarks on every fingerprint machine (the 4-wide one included),
// and on gcc at 4, 6 and 16 wide, the packed kernel's Result on the one
// capture pass its throttle drove equals the scheme's live single-lane
// run's, bit for bit.
func TestFamilyPassMatchesSingleLaneRuns(t *testing.T) {
	const insts = 30_000
	check := func(name string, cfg config.Config, bench string) {
		if n := plbKernelMatchesLive(t, name, cfg, 5_000, bench, insts); n != 3 {
			t.Errorf("%s/%s: both paths served %d of the 3 PLB schemes", name, bench, n)
		}
	}
	for _, m := range fingerprintMachines {
		for _, bench := range Benchmarks() {
			check(m.name, m.cfg(), bench)
		}
	}
	for _, width := range []int{4, 6, 16} {
		cfg := DefaultMachine()
		cfg.IssueWidth = width
		check(fmt.Sprintf("%d-wide", width), cfg, "gcc")
	}
}

// TestFamilyPassRefusesDisagreeingLanes: plb-orig and plb-ext throttle
// differently (plb-orig keeps both D-cache ports in 4-wide mode, plb-ext
// drops one), so on mcf their captures part, and neither is evaluated on
// the other's capture: each refusal names the scheme.
func TestFamilyPassRefusesDisagreeingLanes(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 5_000
	timings := map[SchemeKind]*Timing{}
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt} {
		_, tm, err := sim.RunAndCapture(context.Background(), "mcf", kind, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		timings[kind] = tm
	}
	if reflect.DeepEqual(timings[SchemePLBOrig].CPUStats, timings[SchemePLBExt].CPUStats) {
		t.Fatal("plb-orig's and plb-ext's captures of mcf ran alike; the test needs them to part")
	}
	for kind, other := range map[SchemeKind]SchemeKind{SchemePLBOrig: SchemePLBExt, SchemePLBExt: SchemePLBOrig} {
		_, err := sim.EvaluateTimingAll(timings[other], []SchemeKind{kind})
		if err == nil || !strings.Contains(err.Error(), "scheme "+string(kind)) {
			t.Errorf("%s on %s's capture: err = %v, want a refusal naming %s", kind, other, err, kind)
		}
	}
}

// TestThrottledCaptureIsViewOnly: a throttled capture keeps its packed
// view alone, whatever the context asks, since the stream cannot carry
// its limits.
func TestThrottledCaptureIsViewOnly(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 5_000
	_, tm, err := sim.RunAndCapture(context.Background(), "gzip", SchemePLBOrig, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Throttle != SchemePLBOrig || tm.PLBModeCycles == nil {
		t.Errorf("throttle %q, mode cycles %v; want plb-orig's", tm.Throttle, tm.PLBModeCycles)
	}
	if n := tm.Trace.SizeBytes(); n != 0 {
		t.Errorf("throttled capture kept %d trace bytes, want none", n)
	}
}

// TestRegisterSchemeRefusesBadTiming: a Timing must name the scheme itself
// or an earlier-registered scheme that is its own throttle.
func TestRegisterSchemeRefusesBadTiming(t *testing.T) {
	newNone := func(s *Simulator) gating.Scheme { return gating.NewNone(s.machine) }
	for _, tc := range []struct {
		timing SchemeKind
		want   string
	}{
		{"no-such-scheme", "unregistered throttle"},
		{SchemeDCG, "is not its own throttle"},
		{SchemeDCGPLB, "is not its own throttle"},
	} {
		name := SchemeKind(fmt.Sprintf("test-rides-%s", tc.timing))
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("Timing %q: panic %v, want one saying %q", tc.timing, r, tc.want)
				}
			}()
			RegisterScheme(SchemeInfo{Kind: name, Summary: "test", Timing: tc.timing, New: newNone})
		}()
		if _, ok := SchemeInfoFor(name); ok {
			t.Errorf("refused scheme %q is registered", name)
		}
	}
}

// FuzzPLBKernelMatchesLive is the PLB family's differential test: on a
// drawn machine (issue width 1–16, each FU pool 1–8 units, 1–4 D-cache
// ports, Table 1 or Deep pipeline) and benchmark, over 1k–8k
// instructions after a 2k warm-up, each PLB scheme's packed-kernel Result
// on a capture its throttle drove must equal its live run's, or both
// must fail alike. Narrow machines and pools of one unit make PLB's
// modes share limits, which the tally must not tell apart. A machine
// config.Validate refuses is skipped.
//
// Run it with: go test -run '^$' -fuzz FuzzPLBKernelMatchesLive ./internal/core
func FuzzPLBKernelMatchesLive(f *testing.F) {
	for _, seed := range []struct {
		width, intALU, intMult, fpALU, fpMult, ports uint8
		deep                                         bool
		bench                                        uint8
		insts                                        uint16
	}{
		{8, 6, 2, 4, 4, 2, false, 1, 4000},  // Table 1, gcc
		{4, 6, 2, 4, 4, 2, false, 11, 3000}, // 4 wide
		{6, 1, 1, 1, 1, 1, false, 8, 2000},  // 6 wide, one unit per pool
		{16, 8, 4, 8, 4, 4, true, 3, 1000},  // 16 wide, Deep
	} {
		f.Add(seed.width, seed.intALU, seed.intMult, seed.fpALU, seed.fpMult, seed.ports, seed.deep, seed.bench, seed.insts)
	}
	f.Fuzz(func(t *testing.T, width, intALU, intMult, fpALU, fpMult, ports uint8, deep bool, bench uint8, insts uint16) {
		cfg := DefaultMachine()
		if deep {
			cfg = DeepMachine()
		}
		cfg.IssueWidth = 1 + int(width)%16
		cfg.FU.IntALU, cfg.FU.IntMult = 1+int(intALU)%8, 1+int(intMult)%8
		cfg.FU.FPALU, cfg.FU.FPMult = 1+int(fpALU)%8, 1+int(fpMult)%8
		cfg.DL1.Ports = 1 + int(ports)%4
		if cfg.Validate() != nil {
			t.Skip("machine refused")
		}
		names := Benchmarks()
		plbKernelMatchesLive(t, "fuzz", cfg, 2_000, names[int(bench)%len(names)], 1_000+uint64(insts)%7_001)
	})
}
