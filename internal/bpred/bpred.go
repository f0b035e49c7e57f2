// Package bpred implements the branch prediction machinery of Table 1:
// a 2-level direction predictor (8192-entry first level, 8192-entry second
// level, 4-bit history), an 8192-entry 4-way BTB, and a 32-entry return
// address stack. A bimodal predictor is provided as an alternative.
package bpred

import (
	"fmt"
	"slices"

	"dcg/internal/config"
)

// Update carries the resolved outcome of a control instruction back into
// the predictor.
type Update struct {
	PC     uint64
	Taken  bool
	Target uint64
	IsCall bool
	IsRet  bool
	IsCond bool
}

// Prediction is the front end's view of a control instruction.
type Prediction struct {
	Taken  bool
	Target uint64
	HitBTB bool
}

// DirPredictor predicts conditional branch directions.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
}

// TwoLevel is a GAp/PAg-style two-level adaptive predictor: a first-level
// table of per-branch history registers indexing a second-level table of
// 2-bit saturating counters.
type TwoLevel struct {
	histBits  int
	histMask  uint32
	l1        []uint32 // branch history registers
	l2        []uint8  // 2-bit counters
	l1Mask    uint64
	l2Mask    uint32
	shiftBits uint
}

// NewTwoLevel builds a two-level predictor with the given table sizes and
// history length. Sizes must be powers of two.
func NewTwoLevel(l1Entries, l2Entries, histBits int) (*TwoLevel, error) {
	if l1Entries <= 0 || l1Entries&(l1Entries-1) != 0 {
		return nil, fmt.Errorf("bpred: l1 entries %d not a power of two", l1Entries)
	}
	if l2Entries <= 0 || l2Entries&(l2Entries-1) != 0 {
		return nil, fmt.Errorf("bpred: l2 entries %d not a power of two", l2Entries)
	}
	if histBits < 1 || histBits > 30 {
		return nil, fmt.Errorf("bpred: history bits %d out of range", histBits)
	}
	p := &TwoLevel{
		histBits: histBits,
		histMask: (1 << uint(histBits)) - 1,
		l1:       make([]uint32, l1Entries),
		l2:       make([]uint8, l2Entries),
		l1Mask:   uint64(l1Entries - 1),
		l2Mask:   uint32(l2Entries - 1),
	}
	// Initialise counters weakly taken, like SimpleScalar.
	for i := range p.l2 {
		p.l2[i] = 2
	}
	return p, nil
}

func (p *TwoLevel) clone() *TwoLevel {
	c := *p
	c.l1 = slices.Clone(p.l1)
	c.l2 = slices.Clone(p.l2)
	return &c
}

func (p *TwoLevel) copyFrom(src *TwoLevel) {
	if len(p.l1) != len(src.l1) || len(p.l2) != len(src.l2) || p.histBits != src.histBits {
		panic("bpred: copying between two-level predictors of different geometry")
	}
	copy(p.l1, src.l1)
	copy(p.l2, src.l2)
}

func (p *TwoLevel) l2Index(pc uint64) uint32 {
	hist := p.l1[(pc>>2)&p.l1Mask] & p.histMask
	// XOR-fold the PC with the history (gshare-flavoured second-level
	// indexing keeps aliasing low at these table sizes).
	return (uint32(pc>>2) ^ (hist << 2)) & p.l2Mask
}

// Predict implements DirPredictor.
func (p *TwoLevel) Predict(pc uint64) bool {
	return p.l2[p.l2Index(pc)] >= 2
}

// Update implements DirPredictor.
func (p *TwoLevel) Update(pc uint64, taken bool) {
	idx := p.l2Index(pc)
	c := p.l2[idx]
	if taken {
		if c < 3 {
			p.l2[idx] = c + 1
		}
	} else if c > 0 {
		p.l2[idx] = c - 1
	}
	h := &p.l1[(pc>>2)&p.l1Mask]
	*h = ((*h << 1) | b2u(taken)) & p.histMask
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Bimodal is a classic table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	table []uint8
	mask  uint64
}

// NewBimodal builds a bimodal predictor; entries must be a power of two.
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: bimodal entries %d not a power of two", entries)
	}
	b := &Bimodal{table: make([]uint8, entries), mask: uint64(entries - 1)}
	for i := range b.table {
		b.table[i] = 2
	}
	return b, nil
}

func (b *Bimodal) clone() *Bimodal {
	return &Bimodal{table: slices.Clone(b.table), mask: b.mask}
}

func (b *Bimodal) copyFrom(src *Bimodal) {
	if len(b.table) != len(src.table) {
		panic("bpred: copying between bimodal predictors of different geometry")
	}
	copy(b.table, src.table)
}

// Predict implements DirPredictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[(pc>>2)&b.mask] >= 2 }

// Update implements DirPredictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	idx := (pc >> 2) & b.mask
	c := b.table[idx]
	if taken {
		if c < 3 {
			b.table[idx] = c + 1
		}
	} else if c > 0 {
		b.table[idx] = c - 1
	}
}

// btbEntry is one BTB way.
type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// BTB is a set-associative branch target buffer with true-LRU replacement.
type BTB struct {
	ways    []btbEntry // set i is ways[i*assoc : (i+1)*assoc]
	assoc   int
	setMask uint64
	tick    uint64
}

// NewBTB builds a BTB with the given entry count and associativity.
func NewBTB(entries, assoc int) (*BTB, error) {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("bpred: bad BTB geometry %d/%d", entries, assoc)
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", nsets)
	}
	return &BTB{ways: make([]btbEntry, entries), assoc: assoc, setMask: uint64(nsets - 1)}, nil
}

// set returns the ways pc maps to.
func (b *BTB) set(pc uint64) []btbEntry {
	i := int((pc>>2)&b.setMask) * b.assoc
	return b.ways[i : i+b.assoc]
}

func (b *BTB) clone() *BTB {
	c := *b
	c.ways = slices.Clone(b.ways)
	return &c
}

func (b *BTB) copyFrom(src *BTB) {
	if len(b.ways) != len(src.ways) || b.assoc != src.assoc {
		panic("bpred: copying between BTBs of different geometry")
	}
	copy(b.ways, src.ways)
	b.tick = src.tick
}

// Lookup returns the predicted target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	set := b.set(pc)
	tag := pc >> 2
	b.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = b.tick
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records pc -> target, replacing the LRU way on conflict.
func (b *BTB) Insert(pc, target uint64) {
	set := b.set(pc)
	tag := pc >> 2
	b.tick++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lru = b.tick
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.tick}
}

// RAS is a circular return address stack.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a return address stack with the given capacity.
func NewRAS(entries int) (*RAS, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("bpred: RAS entries must be positive")
	}
	return &RAS{stack: make([]uint64, entries)}, nil
}

func (r *RAS) clone() *RAS {
	c := *r
	c.stack = slices.Clone(r.stack)
	return &c
}

func (r *RAS) copyFrom(src *RAS) {
	if len(r.stack) != len(src.stack) {
		panic("bpred: copying between return address stacks of different depth")
	}
	copy(r.stack, src.stack)
	r.top, r.depth = src.top, src.depth
}

// Push records a call's return address.
func (r *RAS) Push(retAddr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = retAddr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target; ok is false when the stack is empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.depth == 0 {
		return 0, false
	}
	v := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return v, true
}

// Predictor bundles direction predictor, BTB and RAS into the front-end
// interface the pipeline uses.
type Predictor struct {
	Dir DirPredictor
	BTB *BTB
	RAS *RAS

	// Stats.
	CondLookups    uint64
	CondCorrect    uint64
	RASPredictions uint64
}

// New builds the configured predictor (Table 1's 2-level by default).
func New(cfg config.BPredConfig) (*Predictor, error) {
	var dir DirPredictor
	var err error
	switch cfg.Kind {
	case config.BPredBimodal:
		dir, err = NewBimodal(cfg.L2Entries)
	default:
		dir, err = NewTwoLevel(cfg.L1Entries, cfg.L2Entries, cfg.HistoryBits)
	}
	if err != nil {
		return nil, err
	}
	btb, err := NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	ras, err := NewRAS(cfg.RASEntries)
	if err != nil {
		return nil, err
	}
	return &Predictor{Dir: dir, BTB: btb, RAS: ras}, nil
}

// ResetStats clears the prediction counters (the tables are preserved).
func (p *Predictor) ResetStats() { p.CondLookups, p.CondCorrect, p.RASPredictions = 0, 0, 0 }

// Clone returns a deep copy of the predictor: direction tables, BTB, RAS
// and counters. The copy shares no memory with p. Only the built-in
// direction predictors (TwoLevel, Bimodal) can be copied.
func (p *Predictor) Clone() *Predictor {
	c := *p
	switch d := p.Dir.(type) {
	case *TwoLevel:
		c.Dir = d.clone()
	case *Bimodal:
		c.Dir = d.clone()
	default:
		panic(fmt.Sprintf("bpred: cannot clone direction predictor %T", p.Dir))
	}
	c.BTB = p.BTB.clone()
	c.RAS = p.RAS.clone()
	return &c
}

// CopyFrom overwrites p's tables, BTB, RAS and counters with src's,
// reusing p's memory. Both must have been built from the same
// configuration; a geometry mismatch panics.
func (p *Predictor) CopyFrom(src *Predictor) {
	switch d := p.Dir.(type) {
	case *TwoLevel:
		d.copyFrom(src.Dir.(*TwoLevel))
	case *Bimodal:
		d.copyFrom(src.Dir.(*Bimodal))
	default:
		panic(fmt.Sprintf("bpred: cannot copy into direction predictor %T", p.Dir))
	}
	p.BTB.copyFrom(src.BTB)
	p.RAS.copyFrom(src.RAS)
	p.CondLookups, p.CondCorrect, p.RASPredictions = src.CondLookups, src.CondCorrect, src.RASPredictions
}

// PredictCond predicts a conditional branch at pc.
func (p *Predictor) PredictCond(pc uint64) Prediction {
	taken := p.Dir.Predict(pc)
	target, hit := p.BTB.Lookup(pc)
	if !hit {
		// Without a BTB target the front end cannot redirect; treat as
		// not-taken (fall through), as sim-outorder does.
		taken = false
	}
	return Prediction{Taken: taken, Target: target, HitBTB: hit}
}

// PredictJump predicts an unconditional jump/call at pc.
func (p *Predictor) PredictJump(pc uint64) Prediction {
	target, hit := p.BTB.Lookup(pc)
	return Prediction{Taken: hit, Target: target, HitBTB: hit}
}

// PredictRet predicts a return using the RAS, falling back to the BTB.
func (p *Predictor) PredictRet(pc uint64) Prediction {
	if t, ok := p.RAS.Pop(); ok {
		p.RASPredictions++
		return Prediction{Taken: true, Target: t, HitBTB: true}
	}
	return p.PredictJump(pc)
}

// Train updates all structures with a resolved outcome.
func (p *Predictor) Train(u Update) {
	if u.IsCond {
		p.Dir.Update(u.PC, u.Taken)
	}
	if u.Taken {
		p.BTB.Insert(u.PC, u.Target)
	}
	if u.IsCall {
		p.RAS.Push(u.PC + 4)
	}
}
