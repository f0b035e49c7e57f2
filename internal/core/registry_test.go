package core

import (
	"context"
	"strings"
	"testing"

	"dcg/internal/usagetrace"
)

// TestRegistryVocabulary pins the registry as the single source of the
// scheme vocabulary: names parse back to themselves, the parse error
// enumerates every registered name, and the rendered docs table carries
// one row per scheme with its capture throttle and channel set.
func TestRegistryVocabulary(t *testing.T) {
	kinds := AllSchemes()
	if len(kinds) < 9 {
		t.Fatalf("registry has %d schemes, want at least the 9 built-ins", len(kinds))
	}
	if kinds[0] != SchemeNone {
		t.Errorf("first registered scheme is %v, want the baseline", kinds[0])
	}
	for _, k := range kinds {
		got, err := ParseScheme(string(k))
		if err != nil || got != k {
			t.Errorf("ParseScheme(%q) = %v, %v", k, got, err)
		}
		info, ok := SchemeInfoFor(k)
		if !ok || info.Summary == "" || info.New == nil {
			t.Errorf("scheme %v has an incomplete registry entry: %+v", k, info)
		}
	}

	_, err := ParseScheme("no-such-scheme")
	if err == nil {
		t.Fatal("unknown scheme parsed cleanly")
	}
	for _, k := range kinds {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("parse error %q does not enumerate scheme %q", err, k)
		}
	}

	table := SchemeTableMarkdown()
	for _, info := range Schemes() {
		if !strings.Contains(table, "`"+string(info.Kind)+"`") {
			t.Errorf("docs table omits scheme %v", info.Kind)
		}
		if info.Timing != "" && !strings.Contains(table, "| `"+string(info.Kind)+"` | `"+string(info.Timing)+"` |") {
			t.Errorf("docs table omits scheme %v's capture throttle %v", info.Kind, info.Timing)
		}
	}

	if key := ChannelKey(SchemeChannels(SchemeDDCG)); key != usagetrace.ChannelLatchValue {
		t.Errorf("ddcg channel key %q, want %q", key, usagetrace.ChannelLatchValue)
	}
	if key := ChannelKey(SchemeChannels(SchemeDCG)); key != "" {
		t.Errorf("dcg channel key %q, want usage-only", key)
	}
	if u := ChannelUnion(AllSchemes()...); len(u) != 1 || u[0] != usagetrace.ChannelLatchValue {
		t.Errorf("channel union over every scheme = %v, want [latchvalue]", u)
	}
}

// TestEverySchemeRoutesByDeclaredCapability is the registry's routing
// property test, and the end-to-end golden test for the value-dependent
// schemes: for every registered scheme, an evaluation on the packed
// kernel is bit-identical to a full live simulation — from one shared
// capture (carrying the union of all declared channels) for a
// timing-neutral scheme, from a capture under its throttle for the PLB
// family, which the shared capture refuses.
func TestEverySchemeRoutesByDeclaredCapability(t *testing.T) {
	const bench, insts = "gzip", 30_000

	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmarkContext(context.Background(), bench, insts,
		ChannelUnion(AllSchemes()...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range ChannelUnion(AllSchemes()...) {
		if !tm.Trace.HasChannel(ch) {
			t.Fatalf("capture with the full channel union lacks channel %q", ch)
		}
	}

	for _, info := range Schemes() {
		info := info
		t.Run(string(info.Kind), func(t *testing.T) {
			direct, err := sim.RunBenchmark(bench, info.Kind, insts)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Scheme != string(info.Kind) {
				t.Errorf("result labels scheme %q, want %q", direct.Scheme, info.Kind)
			}

			if info.Replay != ReplayPacked {
				t.Errorf("replay capability %v, want packed", info.Replay)
			}
			if TimingNeutral(info.Kind) != (info.Timing == "") {
				t.Error("TimingNeutral disagrees with the registry's throttle")
			}
			if info.Timing != "" {
				if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{info.Kind}); err == nil {
					t.Error("a throttled scheme was accepted on the unthrottled capture")
				}
				packed0 := PackedReplaySchemes()
				captured, _, err := sim.RunAndCapture(context.Background(), bench, info.Kind, insts)
				if err != nil {
					t.Fatal(err)
				}
				if got := PackedReplaySchemes() - packed0; got != 1 {
					t.Errorf("throttled scheme took the packed kernel %d times, want 1", got)
				}
				assertBitIdentical(t, string(info.Kind)+"/throttled-capture", direct, captured)
				return
			}

			packed0 := PackedReplaySchemes()
			replayed, err := sim.EvaluateTimingAll(tm, []SchemeKind{info.Kind})
			if err != nil {
				t.Fatal(err)
			}
			if got := PackedReplaySchemes() - packed0; got != 1 {
				t.Errorf("timing-neutral scheme took the packed kernel %d times, want 1", got)
			}
			assertBitIdentical(t, string(info.Kind)+"/auto-replay", direct, replayed[0])

			// The scalar fused engine is the reference for every neutral
			// scheme — for packed-capable ones this is the scalar-vs-packed
			// bit-identity golden.
			ref, err := sim.EvaluateScalar(tm, schemesOf(t, sim, info.Kind))
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, string(info.Kind)+"/scalar-reference", ref[0], replayed[0])
		})
	}
}

// TestValueDependentSchemesSaveLatchPower sanity-checks the new schemes'
// physics on a real workload: value-dependent latch gating must beat
// occupancy-driven latch gating (values change less often than slots are
// occupied), and the hybrid must not lose to plain DCG on latches.
func TestValueDependentSchemesSaveLatchPower(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmarkContext(context.Background(), "gcc", 30_000,
		usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []SchemeKind{SchemeDCG, SchemeDDCG, SchemeDCGDDCG, SchemeLector}
	rs, err := sim.EvaluateTimingAll(tm, kinds)
	if err != nil {
		t.Fatal(err)
	}
	res := map[SchemeKind]*Result{}
	for i, k := range kinds {
		res[k] = rs[i]
	}
	if s := res[SchemeDDCG].LatchSaving(); s <= 0 {
		t.Errorf("ddcg latch saving %.4f, want positive", s)
	}
	if d, h := res[SchemeDCG].LatchSaving(), res[SchemeDCGDDCG].LatchSaving(); h < d {
		t.Errorf("dcg+ddcg latch saving %.4f below plain dcg %.4f", h, d)
	}
	for _, k := range []SchemeKind{SchemeDCG, SchemeDDCG, SchemeDCGDDCG, SchemeLector} {
		if res[k].GateViolations != 0 {
			t.Errorf("%v: %d gate violations on a clean capture", k, res[k].GateViolations)
		}
	}
}
