package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"dcg/internal/workload"
)

// opKind selects the entry point an op drives.
type opKind int

const (
	opSim   opKind = iota // GET /v1/sim, one scheme
	opBatch               // POST /v1/batch, one benchmark x every scheme
	opSweep               // sweep.Engine.Start on a fresh simrun.Exec
)

// workloadSpec is one traffic mix. Every layer someone is likely to
// optimise does most of its work in one workload and almost none in
// another, so each workload is the target for some layers and the control
// for the rest.
//
// Every workload is a caller that waits for each answer (a closed loop,
// one op at a time). Queueing behind the 2-core box's connections turned a
// slower host into a much higher median on some seeds only, so open-loop
// medians did not repeat between sets of runs.
type workloadSpec struct {
	name string
	why  string
	kind opKind

	// rate is how many ops a run plans per second of run length.
	rate float64

	instsLo, instsHi uint64

	// schemes is the pool one scheme is drawn from per op (opSim) or the
	// full scheme set of every op (opBatch, opSweep).
	schemes []string

	// store attaches the persistent artifact store.
	store bool
}

var workloads = []workloadSpec{
	{
		name: "cold-sim",
		why: "every request pays the capture (workload generator, cpu core, trace encode) with the scheme inline " +
			"while decode, replay and store idle: the target for core speed-ups, the control downstream",
		kind: opSim, rate: 4.2, instsLo: 100_000, instsHi: 300_000,
		schemes: []string{"dcg", "none", "oracle", "lector"},
	},
	{
		name: "value-batch",
		why: "a latchvalue capture and synchronous store writes, a decode that builds scalar columns, scalar " +
			"replays and two full runs: a packed-only or lazy-decode gain on restart-sweep must show no loss here",
		kind: opBatch, rate: 3.2, instsLo: 50_000, instsHi: 150_000,
		schemes: []string{"ddcg", "dcg+ddcg", "plb-ext", "dcg+plb"}, store: true,
	},
	{
		name: "restart-sweep",
		why: "the read side of the store: each job on a fresh executor is stored results or get_timing, decode " +
			"and packed replay, with the cycle core idle; the target for store reads and the control for the core",
		kind: opSweep, rate: 3.2, instsLo: 100_000, instsHi: 200_000,
		schemes: []string{"none", "dcg", "oracle", "lector"}, store: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// op is one generated request: everything the program under test sees.
type op struct {
	ID      int      `json:"id"`
	Bench   string   `json:"bench"`
	Insts   uint64   `json:"insts"`
	Schemes []string `json:"schemes"`
}

// sizing fixes how much work a run plans.
type sizing struct {
	seconds float64
	// smoke plans 3 ops of 20k instructions each.
	smoke bool
}

// smokeInsts is the smoke-size instruction count (ops use smokeInsts+id
// so every key stays distinct).
const smokeInsts = 20_000

// roundSize is the number of ops in one round: two passes over the
// benchmark suite (each pass holds every benchmark once) that together ask
// for the same instructions of every benchmark as any other round. An op
// list is whole rounds. At smoke size a round is the whole op list.
func roundSize(sz sizing) int {
	if sz.smoke {
		return 3
	}
	return 2 * len(workload.Names())
}

// opCount is the number of ops a run plans: rate times the run length,
// rounded up to whole rounds.
func (w workloadSpec) opCount(sz sizing) int {
	if sz.smoke {
		return roundSize(sz)
	}
	rounds := max(int(math.Ceil(w.rate*sz.seconds/float64(roundSize(sz)))), 1)
	return rounds * roundSize(sz)
}

// planOps generates a workload's op list. It is a pure function of the
// workload, the seed and the sizing.
//
// Draws are stratified so that the spread between seeds comes from the
// system, not from the mix: every seed runs the same mix up to jitter and
// order, and so does every round, so the medians over rounds compare like
// with like. Each pass deals the whole suite in a fresh shuffle, so heavy
// benchmarks (mcf, lucas) never bunch up in the server's timing cache. A
// benchmark's occurrences take one instruction count each from the equal
// slots of [instsLo, instsHi), one slot per pass, so every key is
// distinct. A round gives each benchmark mirrored slots, s and the last
// minus s, at mirrored offsets within them, so its two counts always sum
// to the same total: the cost of a pass varies about threefold with where
// mcf and lucas fall, that of a round hardly at all. A single-scheme
// workload deals each benchmark's schemes from shuffled copies of the
// pool, so every benchmark runs every scheme equally often.
func planOps(w workloadSpec, seed int64, sz sizing) []op {
	n := w.opCount(sz)
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))

	suite := workload.Names()
	ops := make([]op, 0, n)
	if sz.smoke {
		for i, b := range dealt(rng, suite, n) {
			o := op{Bench: b, Insts: smokeInsts + uint64(i), Schemes: w.schemes}
			if w.kind == opSim {
				o.Schemes = w.schemes[i%len(w.schemes) : i%len(w.schemes)+1]
			}
			ops = append(ops, o)
		}
	} else {
		rounds := n / roundSize(sz)
		passes := 2 * rounds
		width := (w.instsHi - w.instsLo) / uint64(passes)
		slots := map[string][]int{}
		schemes := map[string][]string{}
		for _, b := range suite {
			slots[b] = rng.Perm(rounds)
			schemes[b] = dealt(rng, w.schemes, passes)
		}
		for r := 0; r < rounds; r++ {
			insts := map[string][2]uint64{}
			for _, b := range suite {
				s, d := uint64(slots[b][r]), rng.Uint64N(width)
				first := w.instsLo + s*width + d
				second := w.instsLo + (uint64(passes)-1-s)*width + (width - 1 - d)
				if rng.IntN(2) == 1 {
					first, second = second, first
				}
				insts[b] = [2]uint64{first, second}
			}
			for half := 0; half < 2; half++ {
				for _, b := range dealt(rng, suite, len(suite)) {
					o := op{Bench: b, Insts: insts[b][half], Schemes: w.schemes}
					if w.kind == opSim {
						o.Schemes = []string{schemes[b][2*r+half]}
					}
					ops = append(ops, o)
				}
			}
		}
	}

	for i := range ops {
		ops[i].ID = i
	}
	return ops
}

// dealt returns n items dealt from successive shuffles of pool.
func dealt(rng *rand.Rand, pool []string, n int) []string {
	out := make([]string, 0, n+len(pool))
	for len(out) < n {
		deck := append([]string(nil), pool...)
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		out = append(out, deck...)
	}
	return out[:n]
}

// warmupInsts is the instruction count of setup round r's warm-up op: just
// below the measured range, so the warm-up does an op's work on a key no
// measured op uses.
func warmupInsts(w workloadSpec, sz sizing, round int) uint64 {
	if sz.smoke {
		return smokeInsts/2 + uint64(round)
	}
	return w.instsLo - uint64(round)
}

func (o op) String() string {
	return fmt.Sprintf("op %d (%s insts=%d %v)", o.ID, o.Bench, o.Insts, o.Schemes)
}
