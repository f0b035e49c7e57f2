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
// one row per scheme with its replay capability and channel set.
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
		if !strings.Contains(table, info.Replay.String()) {
			t.Errorf("docs table omits replay capability %v", info.Replay)
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
// schemes: for every registered scheme, a replay from one shared capture
// (carrying the union of all declared channels) is bit-identical to a
// full live simulation, and the evaluation takes exactly the path the
// registry declares — the packed kernel for ReplayPacked, the scalar
// fused engine for ReplayScalar, and a loud refusal for ReplayFullRun.
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

			if info.Replay == ReplayFullRun {
				if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{info.Kind}); err == nil {
					t.Error("timing-changing scheme was accepted for replay")
				}
				if TimingNeutral(info.Kind) {
					t.Error("TimingNeutral disagrees with the registry capability")
				}
				return
			}
			if !TimingNeutral(info.Kind) {
				t.Error("TimingNeutral disagrees with the registry capability")
			}

			packed0 := PackedReplaySchemes()
			fused0 := usagetrace.FusedSchemes()
			replayed, err := sim.EvaluateTimingAll(tm, []SchemeKind{info.Kind})
			if err != nil {
				t.Fatal(err)
			}
			packedDelta := PackedReplaySchemes() - packed0
			fusedDelta := usagetrace.FusedSchemes() - fused0
			switch info.Replay {
			case ReplayPacked:
				if packedDelta != 1 || fusedDelta != 0 {
					t.Errorf("packed-capable scheme took packed=%d fused=%d, want the packed kernel",
						packedDelta, fusedDelta)
				}
			case ReplayScalar:
				if packedDelta != 0 || fusedDelta != 1 {
					t.Errorf("scalar-only scheme took packed=%d fused=%d, want the scalar engine",
						packedDelta, fusedDelta)
				}
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
