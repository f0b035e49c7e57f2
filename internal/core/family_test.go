package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcg/internal/gating"
)

// TestFamilyPassMatchesSingleLaneRuns is the timing-family golden: every
// member's Result from one RunFamilyContext pass is DeepEqual to its own
// single-lane RunBenchmarkContext Result (PLBModeCycles, LeadViolations
// and the unexported per-cycle power vector included), for each member
// as the requested scheme, on all 16 benchmarks and every machine the
// fingerprint table runs PLB on.
func TestFamilyPassMatchesSingleLaneRuns(t *testing.T) {
	const insts = 30_000
	family := TimingFamily(SchemePLBExt)
	if want := []SchemeKind{SchemePLBExt, SchemeDCGPLB}; !slices.Equal(family, want) {
		t.Fatalf("TimingFamily(plb-ext) = %v, want %v", family, want)
	}
	for _, m := range fingerprintMachines {
		if !m.plbOK {
			continue
		}
		sim := NewSimulator(m.cfg())
		sim.Warmup = 5_000
		for i, bench := range Benchmarks() {
			single := make(map[SchemeKind]*Result, len(family))
			for _, k := range family {
				res, err := sim.RunBenchmarkContext(context.Background(), bench, k, insts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", m.name, bench, k, err)
				}
				single[k] = res
			}
			// Alternate which member asks, so each serves as the pass's
			// requested scheme and as a rider.
			kind := family[i%len(family)]
			res, err := sim.RunFamilyContext(context.Background(), bench, kind, insts)
			if err != nil {
				t.Fatalf("%s/%s family pass for %s: %v", m.name, bench, kind, err)
			}
			got := append([]*Result{res}, res.Riders...)
			if len(got) != len(family) {
				t.Fatalf("%s/%s: family pass gave %d Results, want %d", m.name, bench, len(got), len(family))
			}
			res.Riders = nil
			for _, r := range got {
				want := single[SchemeKind(r.Scheme)]
				if want == nil {
					t.Fatalf("%s/%s: family pass gave a Result for %q", m.name, bench, r.Scheme)
				}
				if !reflect.DeepEqual(r, want) {
					t.Errorf("%s/%s/%s: family lane differs from its single-lane run:\n got %+v\nwant %+v",
						m.name, bench, r.Scheme, r, want)
				}
				delete(single, SchemeKind(r.Scheme))
			}
		}
	}
}

// TestFamilyPassRefusesDisagreeingLanes holds the per-cycle check: lanes
// that throttle differently (plb-orig keeps both D-cache ports in 4-wide
// mode, plb-ext drops one) fail the pass with an error naming the cycle,
// not a Result.
func TestFamilyPassRefusesDisagreeingLanes(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 5_000
	res, err := sim.runFamily(context.Background(), "mcf", []SchemeKind{SchemePLBExt, SchemePLBOrig}, 30_000, nil)
	if err == nil {
		t.Fatalf("disagreeing lanes returned a Result (%d cycles), want an error", res.Cycles)
	}
	for _, want := range []string{"plb-ext", "plb-orig", "at cycle "} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestFamilyThrottleChecksQuietRuns holds the check on the fast-forward
// path: lanes that take runs of different lengths fail the pass too.
func TestFamilyThrottleChecksQuietRuns(t *testing.T) {
	canceled := false
	f := &familyThrottle{
		schemes: []gating.Scheme{quietTaker{gating.NewNone(DefaultMachine()), 5}, quietTaker{gating.NewNone(DefaultMachine()), 3}},
		fail:    func() { canceled = true },
	}
	if got := f.QuietLimits(40, 10); got != 5 {
		t.Errorf("QuietLimits = %d, want the first lane's 5", got)
	}
	if f.err == nil || !canceled || !strings.Contains(f.err.Error(), "at cycle 40") {
		t.Errorf("quiet-run disagreement recorded %v (pass canceled: %v), want an error naming cycle 40 and a canceled pass", f.err, canceled)
	}
}

// quietTaker is a scheme that takes at most n cycles of any quiet run.
type quietTaker struct {
	gating.Scheme
	n uint64
}

func (q quietTaker) QuietLimits(_, n uint64) uint64 { return min(n, q.n) }

// TestRegisterSchemeRefusesBadTiming: a Timing must name an earlier
// full-run scheme that takes its own pass.
func TestRegisterSchemeRefusesBadTiming(t *testing.T) {
	newNone := func(s *Simulator) gating.Scheme { return gating.NewNone(s.machine) }
	for _, tc := range []struct {
		timing SchemeKind
		want   string
	}{
		{"no-such-scheme", "unregistered"},
		{SchemeDCG, "timing-neutral"},
		{SchemeDCGPLB, "itself a rider"},
	} {
		name := SchemeKind(fmt.Sprintf("test-rides-%s", tc.timing))
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("Timing %q: panic %v, want one saying %q", tc.timing, r, tc.want)
				}
			}()
			RegisterScheme(SchemeInfo{Kind: name, Summary: "test", Replay: ReplayFullRun, Timing: tc.timing, New: newNone})
		}()
		if _, ok := SchemeInfoFor(name); ok {
			t.Errorf("refused scheme %q is registered", name)
		}
	}
}
