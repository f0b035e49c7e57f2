package bpred

import (
	"slices"
	"testing"
	"testing/quick"

	"dcg/internal/config"
)

func TestTwoLevelLearnsBias(t *testing.T) {
	p, err := NewTwoLevel(256, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x1000)
	for i := 0; i < 64; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("always-taken branch predicted not-taken")
	}
	for i := 0; i < 64; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Error("always-not-taken branch predicted taken")
	}
}

func TestTwoLevelLearnsShortPattern(t *testing.T) {
	p, err := NewTwoLevel(1024, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x2000)
	// Period-4 pattern T T T N — within 4 bits of history, so the
	// second level can learn it perfectly.
	pattern := []bool{true, true, true, false}
	// Train.
	for i := 0; i < 400; i++ {
		p.Update(pc, pattern[i%4])
	}
	// Measure.
	correct := 0
	for i := 0; i < 100; i++ {
		want := pattern[i%4]
		if p.Predict(pc) == want {
			correct++
		}
		p.Update(pc, want)
	}
	if correct < 95 {
		t.Errorf("period-4 pattern accuracy %d%%, want >= 95%%", correct)
	}
}

func TestTwoLevelValidation(t *testing.T) {
	if _, err := NewTwoLevel(100, 256, 4); err == nil {
		t.Error("non-power-of-two l1 accepted")
	}
	if _, err := NewTwoLevel(256, 100, 4); err == nil {
		t.Error("non-power-of-two l2 accepted")
	}
	if _, err := NewTwoLevel(256, 256, 0); err == nil {
		t.Error("zero history accepted")
	}
}

func TestBimodalSaturation(t *testing.T) {
	b, err := NewBimodal(128)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x3000)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	// A single contrary outcome must not flip a saturated counter.
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("saturated counter flipped after one contrary outcome")
	}
	b.Update(pc, false)
	b.Update(pc, false)
	if b.Predict(pc) {
		t.Error("counter failed to flip after three contrary outcomes")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	btb, err := NewBTB(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	btb.Insert(0x1000, 0x2000)
	if tgt, ok := btb.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Fatalf("lookup = %#x,%v", tgt, ok)
	}
	if _, ok := btb.Lookup(0x1004); ok {
		t.Error("phantom BTB hit")
	}
	// Update in place.
	btb.Insert(0x1000, 0x3000)
	if tgt, _ := btb.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("update-in-place failed: %#x", tgt)
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	btb, err := NewBTB(8, 2) // 4 sets x 2 ways
	if err != nil {
		t.Fatal(err)
	}
	// Three branches mapping to the same set (stride = sets*4 bytes).
	a, b, c := uint64(0x1000), uint64(0x1000+4*4), uint64(0x1000+8*4)
	btb.Insert(a, 1)
	btb.Insert(b, 2)
	btb.Lookup(a) // a is now MRU
	btb.Insert(c, 3)
	if _, ok := btb.Lookup(b); ok {
		t.Error("LRU victim (b) survived")
	}
	if _, ok := btb.Lookup(a); !ok {
		t.Error("MRU entry (a) evicted")
	}
	if _, ok := btb.Lookup(c); !ok {
		t.Error("new entry (c) missing")
	}
}

func TestRASMatchesCallReturn(t *testing.T) {
	ras, err := NewRAS(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ras.Pop(); ok {
		t.Fatal("empty RAS popped")
	}
	ras.Push(0x100)
	ras.Push(0x200)
	if v, ok := ras.Pop(); !ok || v != 0x200 {
		t.Fatalf("pop = %#x,%v", v, ok)
	}
	if v, ok := ras.Pop(); !ok || v != 0x100 {
		t.Fatalf("pop = %#x,%v", v, ok)
	}
	if _, ok := ras.Pop(); ok {
		t.Fatal("RAS underflow not detected")
	}
}

func TestRASWrapsOnOverflow(t *testing.T) {
	ras, _ := NewRAS(2)
	ras.Push(1)
	ras.Push(2)
	ras.Push(3) // overwrites the oldest
	if v, _ := ras.Pop(); v != 3 {
		t.Fatalf("pop = %d, want 3", v)
	}
	if v, _ := ras.Pop(); v != 2 {
		t.Fatalf("pop = %d, want 2", v)
	}
}

func TestPredictorIntegration(t *testing.T) {
	p, err := New(config.Default().BPred)
	if err != nil {
		t.Fatal(err)
	}
	pc, target := uint64(0x4000), uint64(0x8000)
	// Untrained: conditional without a BTB entry must predict not-taken
	// (no redirect target available).
	if pred := p.PredictCond(pc); pred.Taken {
		t.Error("untrained conditional predicted taken without a BTB target")
	}
	for i := 0; i < 8; i++ {
		p.Train(Update{PC: pc, Taken: true, Target: target, IsCond: true})
	}
	pred := p.PredictCond(pc)
	if !pred.Taken || pred.Target != target {
		t.Errorf("trained conditional: %+v", pred)
	}
	// Call pushes the return address; return pops it.
	callPC := uint64(0x5000)
	p.Train(Update{PC: callPC, Taken: true, Target: 0x9000, IsCall: true})
	ret := p.PredictRet(0x9100)
	if !ret.Taken || ret.Target != callPC+4 {
		t.Errorf("return prediction: %+v", ret)
	}
}

// Property: after inserting (pc, target) the very next lookup of pc hits
// with that target.
func TestQuickBTBInsertThenHit(t *testing.T) {
	btb, err := NewBTB(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pcRaw, tgt uint64) bool {
		pc := pcRaw &^ 3
		btb.Insert(pc, tgt)
		got, ok := btb.Lookup(pc)
		return ok && got == tgt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: direction predictors always return a defined answer and
// training moves the prediction toward a constant outcome within 4 updates.
func TestQuickDirectionConvergence(t *testing.T) {
	f := func(pcRaw uint64, taken bool) bool {
		p, err := NewTwoLevel(512, 512, 4)
		if err != nil {
			return false
		}
		pc := pcRaw &^ 3
		for i := 0; i < 8; i++ {
			p.Update(pc, taken)
		}
		return p.Predict(pc) == taken
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistoryLengthLimits(t *testing.T) {
	// With 4 bits of history, a period-5 pattern is ambiguous (the same
	// 4-bit history precedes both outcomes at some point), so accuracy
	// must be noticeably below the learnable period-4 case.
	accuracy := func(pattern []bool) float64 {
		p, err := NewTwoLevel(1024, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		pc := uint64(0x9000)
		for i := 0; i < 500; i++ {
			p.Update(pc, pattern[i%len(pattern)])
		}
		correct := 0
		n := 500
		for i := 0; i < n; i++ {
			want := pattern[i%len(pattern)]
			if p.Predict(pc) == want {
				correct++
			}
			p.Update(pc, want)
		}
		return float64(correct) / float64(n)
	}
	p4 := accuracy([]bool{true, true, true, false})
	if p4 < 0.95 {
		t.Errorf("period-4 accuracy %.2f; 4-bit history should learn it", p4)
	}
	// Period 6 with two not-taken positions separated so 4-bit contexts
	// collide: T T T T N N — the all-taken 4-bit history precedes both T
	// and N.
	p6 := accuracy([]bool{true, true, true, true, false, false})
	if p6 > p4 {
		t.Errorf("period-6 accuracy %.2f above period-4 %.2f; history limit not modelled", p6, p4)
	}
}

func TestPredictorTablePressure(t *testing.T) {
	// Thousands of distinct branch sites alias in a small predictor but
	// not in the Table 1 sized one.
	run := func(l1, l2 int) float64 {
		p, err := NewTwoLevel(l1, l2, 4)
		if err != nil {
			t.Fatal(err)
		}
		correct, n := 0, 0
		// 4096 biased branch sites, interleaved.
		for round := 0; round < 20; round++ {
			for site := 0; site < 4096; site++ {
				pc := uint64(0x10000 + site*4)
				want := site%8 != 0 // most sites strongly taken
				if p.Predict(pc) == want {
					correct++
				}
				n++
				p.Update(pc, want)
			}
		}
		return float64(correct) / float64(n)
	}
	big := run(8192, 8192)
	small := run(64, 64)
	if big <= small {
		t.Errorf("Table 1 predictor (%.3f) not above tiny predictor (%.3f) under table pressure", big, small)
	}
}

func TestPredictorKindSelection(t *testing.T) {
	cfg := config.Default().BPred
	cfg.Kind = config.BPredBimodal
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Dir.(*Bimodal); !ok {
		t.Fatalf("Kind=bimodal built %T", p.Dir)
	}
	cfg.Kind = config.BPredTwoLevel
	p, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Dir.(*TwoLevel); !ok {
		t.Fatalf("Kind=2-level built %T", p.Dir)
	}
}

// drive runs n pseudo-random control instructions from seed through p,
// over few enough PCs that the BTB's sets overflow, and returns every
// prediction.
func drive(p *Predictor, seed uint64, n int) []Prediction {
	out := make([]Prediction, 0, n)
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		pc := 0x1000 + (x>>33)%96*4
		taken := x>>20&3 != 0
		target := 0x8000 + (x>>40)%64*4
		var pred Prediction
		u := Update{PC: pc, Taken: taken, Target: target}
		switch x >> 60 & 3 {
		case 0:
			pred = p.PredictJump(pc)
			u.Taken, u.IsCall = true, true
		case 1:
			pred = p.PredictRet(pc)
			u.Taken, u.IsRet = true, true
		default:
			pred = p.PredictCond(pc)
			u.IsCond = true
		}
		p.Train(u)
		out = append(out, pred)
	}
	return out
}

// popAll empties r, returning what it held, newest first.
func popAll(r *RAS) []uint64 {
	var out []uint64
	for {
		v, ok := r.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// TestPredictorCopies: a Clone and a CopyFrom target behave exactly as the
// original did when copied, and driving them leaves the original's next
// predictions equal to those of an untouched twin.
func TestPredictorCopies(t *testing.T) {
	for _, kind := range []config.BPredKind{config.BPredTwoLevel, config.BPredBimodal} {
		cfg := config.BPredConfig{Kind: kind, L1Entries: 64, L2Entries: 256, HistoryBits: 4,
			BTBEntries: 32, BTBAssoc: 4, RASEntries: 16, MispredictPenaly: 8}
		build := func() *Predictor {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		orig, twin, dst := build(), build(), build()
		drive(orig, 1, 4000)
		drive(twin, 1, 4000)
		drive(dst, 7, 37) // CopyFrom must overwrite all of this
		clone := orig.Clone()
		dst.CopyFrom(orig)

		// The RAS's position and depth first: driving soon rotates the
		// stack so that only its contents matter.
		wantRAS := popAll(twin.RAS)
		want := drive(twin, 2, 4000)
		for _, c := range []struct {
			name string
			p    *Predictor
		}{{"the clone", clone}, {"the CopyFrom target", dst}, {"the original, after its copies ran,", orig}} {
			if got := popAll(c.p.RAS); !slices.Equal(got, wantRAS) {
				t.Errorf("%v: %s pops %v, want %v", kind, c.name, got, wantRAS)
			}
			if got := drive(c.p, 2, 4000); !slices.Equal(got, want) || c.p.RASPredictions != twin.RASPredictions {
				t.Errorf("%v: %s predicts differently from an untouched twin", kind, c.name)
			}
		}
	}
}

func TestPredictorResetStats(t *testing.T) {
	p, err := New(config.Default().BPred)
	if err != nil {
		t.Fatal(err)
	}
	p.Train(Update{PC: 0x100, Taken: true, IsCall: true})
	p.PredictRet(0x200)
	p.CondLookups, p.CondCorrect = 5, 4
	p.ResetStats()
	if p.CondLookups != 0 || p.CondCorrect != 0 || p.RASPredictions != 0 {
		t.Errorf("counters after ResetStats: %d %d %d", p.CondLookups, p.CondCorrect, p.RASPredictions)
	}
}
