package workload

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dcg/internal/isa"
	"dcg/internal/trace"
)

func TestAllProfilesValidate(t *testing.T) {
	profs := Profiles()
	if len(profs) != 16 {
		t.Fatalf("expected 16 benchmark profiles, got %d", len(profs))
	}
	nInt, nFP := 0, 0
	for name, p := range profs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Class == ClassInt {
			nInt++
		} else {
			nFP++
		}
	}
	if nInt != 8 || nFP != 8 {
		t.Errorf("suite split = %d int / %d fp, want 8/8", nInt, nFP)
	}
}

func TestNamesOrdering(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	if len(IntNames()) != 8 || len(FPNames()) != 8 {
		t.Fatal("suite name lists wrong")
	}
	// Integer suite first.
	for i, n := range names[:8] {
		p, _ := ByName(n)
		if p.Class != ClassInt {
			t.Errorf("names[%d]=%s is not integer-suite", i, n)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName accepted an unknown benchmark")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	g1 := MustGenerator(p)
	g2 := MustGenerator(p)
	for i := 0; i < 50000; i++ {
		d1, _ := g1.Next()
		d2, _ := g2.Next()
		if d1 != d2 {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, d1, d2)
		}
	}
}

func TestGeneratorReset(t *testing.T) {
	p, _ := ByName("swim")
	g := MustGenerator(p)
	var first []trace.DynInst
	for i := 0; i < 1000; i++ {
		d, _ := g.Next()
		first = append(first, d)
	}
	g.Reset()
	for i := 0; i < 1000; i++ {
		d, _ := g.Next()
		if d != first[i] {
			t.Fatalf("Reset replay diverges at %d", i)
		}
	}
}

// TestGeneratorClone: a clone continues the original's stream exactly, and
// running it leaves the original's next instructions equal to those of an
// untouched twin (the walk's return stack, loop counters and PRNG are the
// clone's own). Where the walk calls functions, the clone is taken inside
// one, so the return stack is in use.
func TestGeneratorClone(t *testing.T) {
	next := func(g *Generator, n int) []trace.DynInst {
		out := make([]trace.DynInst, n)
		for i := range out {
			out[i], _ = g.Next()
		}
		return out
	}
	inCall := 0
	for _, name := range Names() {
		p, _ := ByName(name)
		orig, twin := MustGenerator(p), MustGenerator(p)
		next(orig, 20_000)
		next(twin, 20_000)
		for i := 0; len(orig.callRet) == 0 && i < 100_000; i++ {
			next(orig, 1)
			next(twin, 1)
		}
		if len(orig.callRet) > 0 {
			inCall++
		}
		clone := orig.Clone()
		want := next(twin, 20_000)
		if got := next(clone, 20_000); !slices.Equal(got, want) {
			t.Errorf("%s: the clone's stream differs from the original's", name)
		}
		if got := next(orig, 20_000); !slices.Equal(got, want) {
			t.Errorf("%s: running the clone changed the original's stream", name)
		}
	}
	if inCall == 0 {
		t.Error("no benchmark was cloned inside a function")
	}
}

func TestStreamInstructionsValid(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		g := MustGenerator(p)
		for i := 0; i < 20000; i++ {
			d, ok := g.Next()
			if !ok {
				t.Fatalf("%s: stream ended", name)
			}
			if err := d.Inst.Validate(); err != nil {
				t.Fatalf("%s: invalid instruction at %d: %v (%s)", name, i, err, d.Inst)
			}
			if d.Seq != uint64(i) {
				t.Fatalf("%s: sequence gap at %d (seq=%d)", name, i, d.Seq)
			}
		}
	}
}

func TestControlFlowConsistency(t *testing.T) {
	// Every instruction's PC must equal the previous instruction's NextPC:
	// the stream is a single coherent dynamic path.
	for _, name := range []string{"gzip", "mcf", "mesa"} {
		p, _ := ByName(name)
		g := MustGenerator(p)
		prev, _ := g.Next()
		for i := 1; i < 50000; i++ {
			d, _ := g.Next()
			if d.PC != prev.NextPC() {
				t.Fatalf("%s: discontinuity at %d: prev %s (pc=%#x taken=%v tgt=%#x) -> pc %#x",
					name, i, prev.Inst, prev.PC, prev.Taken, prev.Target, d.PC)
			}
			prev = d
		}
	}
}

func TestRealizedMixTracksProfile(t *testing.T) {
	// The per-block stratified composition must keep the realized dynamic
	// mix within a few points of the profile mix even over long runs.
	for _, name := range Names() {
		p, _ := ByName(name)
		g := MustGenerator(p)
		var counts [isa.NumClasses]float64
		n := 100000
		for i := 0; i < n; i++ {
			d, _ := g.Next()
			counts[d.Inst.Class()]++
		}
		norm := p.Mix.Normalize()
		check := func(label string, want, got float64, tol float64) {
			if math.Abs(want-got) > tol {
				t.Errorf("%s: %s frac = %.3f, profile %.3f", name, label, got, want)
			}
		}
		check("load", norm.Load, counts[isa.ClassLoad]/float64(n), 0.06)
		check("store", norm.Store, counts[isa.ClassStore]/float64(n), 0.05)
		fpWant := norm.FPALU + norm.FPMult + norm.FPDiv
		fpGot := (counts[isa.ClassFPALU] + counts[isa.ClassFPMult] + counts[isa.ClassFPDiv]) / float64(n)
		check("fp", fpWant, fpGot, 0.06)
	}
}

func TestMemoryAddressesStayInRegions(t *testing.T) {
	p, _ := ByName("mcf")
	g := MustGenerator(p)
	for i := 0; i < 50000; i++ {
		d, _ := g.Next()
		if !d.IsMem() {
			continue
		}
		in := d.EA >= regionBase[regionHot] && d.EA < regionBase[regionHot]+p.Mem.HotBytes ||
			d.EA >= regionBase[regionWarm] && d.EA < regionBase[regionWarm]+p.Mem.WarmBytes ||
			d.EA >= regionBase[regionCold] && d.EA < regionBase[regionCold]+p.Mem.ColdBytes
		if !in {
			t.Fatalf("EA %#x outside all regions", d.EA)
		}
	}
}

func TestCallReturnPairing(t *testing.T) {
	// Every return's target must be the instruction after the matching
	// call (the RAS-friendliness the front end depends on).
	p, _ := ByName("vortex")
	g := MustGenerator(p)
	var stack []uint64
	for i := 0; i < 100000; i++ {
		d, _ := g.Next()
		switch d.Inst.Op {
		case isa.OpCall:
			stack = append(stack, d.PC+4)
		case isa.OpRet:
			if len(stack) == 0 {
				continue // stray return restarts the walk; allowed
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if d.Target != want {
				t.Fatalf("return at %d goes to %#x, want %#x", i, d.Target, want)
			}
		}
	}
}

func TestTakenBranchesHaveTargets(t *testing.T) {
	p, _ := ByName("parser")
	g := MustGenerator(p)
	for i := 0; i < 50000; i++ {
		d, _ := g.Next()
		if d.IsCtrl() && d.Taken && d.Target == 0 {
			t.Fatalf("taken control instruction without target at %d", i)
		}
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	good, _ := ByName("gzip")
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Mix.IntALU += 0.5
	if bad.Validate() == nil {
		t.Error("non-normalized mix accepted")
	}
	bad = good
	bad.Blocks = 1
	if bad.Validate() == nil {
		t.Error("too-few blocks accepted")
	}
	bad = good
	bad.Mem.HotFrac = 0.2
	if bad.Validate() == nil {
		t.Error("bad mem mix accepted")
	}
	bad = good
	bad.SerialFrac = 1.5
	if bad.Validate() == nil {
		t.Error("bad serial fraction accepted")
	}
}

// TestValidateBoundsFileProfiles: Validate refuses the profiles a file
// could carry that would make NewGenerator panic or allocate without
// bound: a fraction outside [0, 1] even when the mix still sums to 1, a
// footprint past MaxBlocks, and a memory stride of 0 or past a region.
func TestValidateBoundsFileProfiles(t *testing.T) {
	good, _ := ByName("gzip")
	for name, mutate := range map[string]func(p *Profile){
		"negative op share":       func(p *Profile) { p.Mix.IntMult, p.Mix.IntDiv = 1e6, p.Mix.IntDiv-1e6 },
		"call probability 2":      func(p *Profile) { p.Branch.CallFrac = 2 },
		"chase fraction -1":       func(p *Profile) { p.Mem.ChaseFrac = -1 },
		"blocks past the bound":   func(p *Profile) { p.Blocks = MaxBlocks + 1 },
		"zero stride":             func(p *Profile) { p.Mem.Stride = 0 },
		"stride past a region":    func(p *Profile) { p.Mem.Stride = p.Mem.HotBytes + 1 },
		"stride past the default": func(p *Profile) { p.Mem.WarmBytes, p.Mem.Stride = 0, defaultRegionBytes+8 },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	at := good
	at.Blocks = MaxBlocks
	if err := at.Validate(); err != nil {
		t.Errorf("a footprint of MaxBlocks refused: %v", err)
	}
}

func TestOpMixNormalize(t *testing.T) {
	m := OpMix{IntALU: 2, Load: 1, Branch: 1}
	n := m.Normalize()
	if math.Abs(n.Sum()-1) > 1e-12 {
		t.Errorf("normalized sum = %v", n.Sum())
	}
	if math.Abs(n.IntALU-0.5) > 1e-12 {
		t.Errorf("IntALU = %v", n.IntALU)
	}
	zero := OpMix{}.Normalize()
	if zero.IntALU != 1 {
		t.Error("zero mix should normalize to all-ALU")
	}
}

// Property: the deterministic PRNG's geometric variates have the requested
// mean (within sampling error) and are always >= 1.
func TestQuickGeometricMean(t *testing.T) {
	r := newRNG(7)
	for _, mean := range []float64{1, 2, 8, 32} {
		sum := 0.0
		n := 20000
		for i := 0; i < n; i++ {
			v := r.geometric(mean)
			if v < 1 {
				t.Fatalf("geometric returned %d < 1", v)
			}
			sum += float64(v)
		}
		got := sum / float64(n)
		if mean > 1 && math.Abs(got-mean)/mean > 0.1 {
			t.Errorf("geometric(%v) mean = %v", mean, got)
		}
	}
}

// Property: streams from different seeds differ; the same seed agrees.
func TestQuickSeedSensitivity(t *testing.T) {
	base, _ := ByName("gzip")
	f := func(seed uint64) bool {
		p := base
		p.Seed = seed
		g1 := MustGenerator(p)
		g2 := MustGenerator(p)
		for i := 0; i < 200; i++ {
			d1, _ := g1.Next()
			d2, _ := g2.Next()
			if d1 != d2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := newRNG(42)
	var buckets [8]int
	n := 80000
	for i := 0; i < n; i++ {
		buckets[r.intn(8)]++
	}
	for i, b := range buckets {
		if math.Abs(float64(b)-float64(n)/8) > float64(n)/8*0.1 {
			t.Errorf("bucket %d = %d, expected ~%d", i, b, n/8)
		}
	}
}

func TestDescribe(t *testing.T) {
	p, _ := ByName("gzip")
	g := MustGenerator(p)
	if g.Describe() == "" || g.Name() != "gzip" {
		t.Error("Describe/Name broken")
	}
}

func TestLoopDwellCapBoundsConcentration(t *testing.T) {
	// No contiguous PC-neighbourhood may dominate the stream: the loop
	// dwell cap forces the walk onward, so any single 4-block window of
	// the code should stay well under half the instructions.
	p, _ := ByName("swim")
	g := MustGenerator(p)
	counts := map[uint64]int{}
	n := 100000
	for i := 0; i < n; i++ {
		d, _ := g.Next()
		counts[d.PC>>9]++ // 512-byte neighbourhoods (~4 blocks)
	}
	for hood, c := range counts {
		if float64(c) > 0.5*float64(n) {
			t.Fatalf("neighbourhood %#x holds %.0f%% of the stream", hood<<9, 100*float64(c)/float64(n))
		}
	}
}

func TestEveryProfileKeepsStoresAlive(t *testing.T) {
	// The deterministic-representation rule: no hot nest can starve a
	// class with at least half a slot of share. Stores are the canary
	// (they have the smallest share).
	for _, name := range Names() {
		p, _ := ByName(name)
		g := MustGenerator(p)
		stores := 0
		n := 60000
		for i := 0; i < n; i++ {
			d, _ := g.Next()
			if d.Inst.Op == isa.OpSt || d.Inst.Op == isa.OpStF {
				stores++
			}
		}
		if frac := float64(stores) / float64(n); frac < 0.02 {
			t.Errorf("%s: store fraction %.4f starved", name, frac)
		}
	}
}

func TestChaseLoadsAreSerialised(t *testing.T) {
	// mcf's chased loads must form a register dependence chain: a chase
	// load reads the chain register its predecessor wrote.
	p, _ := ByName("mcf")
	g := MustGenerator(p)
	chase := 0
	for i := 0; i < 60000; i++ {
		d, _ := g.Next()
		if d.Inst.Op == isa.OpLd &&
			d.Inst.Dst == isa.IntReg(regChainInt) && d.Inst.Src1 == isa.IntReg(regChainInt) {
			chase++
		}
	}
	if chase < 500 {
		t.Fatalf("only %d chased loads in 60k mcf instructions", chase)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	orig, _ := ByName("mcf")
	var buf bytes.Buffer
	if err := SaveProfile(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", got, orig)
	}
	// The loaded profile generates the identical stream.
	g1, g2 := MustGenerator(orig), MustGenerator(got)
	for i := 0; i < 5000; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a != b {
			t.Fatalf("stream diverges at %d", i)
		}
	}
}

func TestLoadProfileRejectsInvalid(t *testing.T) {
	if _, err := LoadProfile(strings.NewReader(`{"Name":""}`)); err == nil {
		t.Error("invalid profile accepted")
	}
	if _, err := LoadProfile(strings.NewReader(`{"Bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadProfile(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}
