package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/server"
	"dcg/internal/sweep"
	"dcg/internal/workload"
)

// result is one (benchmark, scheme) outcome as an op returned it, reduced
// to the fields the reference check compares bit for bit.
type result struct {
	Bench, Scheme  string
	Insts          uint64
	Cycles         uint64
	Committed      uint64
	IPC            float64
	AvgPower       float64
	BaselinePower  float64
	Saving         float64
	LeadViolations uint64
	GateViolations uint64

	// sweepRow marks a results.jsonl row, which carries neither the
	// committed count nor lead violations.
	sweepRow bool
}

func fromResponse(r *server.SimResponse) result {
	return result{
		Bench: r.Benchmark, Scheme: r.Scheme, Insts: r.Insts,
		Cycles: r.Cycles, Committed: r.Committed, IPC: r.IPC,
		AvgPower: r.AvgPower, BaselinePower: r.BaselinePower, Saving: r.Saving,
		LeadViolations: r.LeadViolations, GateViolations: r.GateViolations,
	}
}

func fromSweepRow(r *sweep.ItemResult) result {
	return result{
		Bench: r.Bench, Scheme: r.Scheme, Insts: r.Insts,
		Cycles: r.Cycles, IPC: r.IPC,
		AvgPower: r.AvgPower, BaselinePower: r.BaselinePower, Saving: r.Saving,
		GateViolations: r.GateViolations, sweepRow: true,
	}
}

// fromCore reduces a direct-run result; the key names the scheme as it
// was requested (the registry name, which the wire forms echo).
func fromCore(bench, scheme string, insts uint64, r *core.Result) result {
	return result{
		Bench: bench, Scheme: scheme, Insts: insts,
		Cycles: r.Cycles, Committed: r.Committed, IPC: r.IPC,
		AvgPower: r.AvgPower, BaselinePower: r.BaselinePower, Saving: r.Saving,
		LeadViolations: r.LeadViolations, GateViolations: r.GateViolations,
	}
}

// diffResult lists every compared field on which got and want differ.
// Floats compare by bit pattern: the serving and replay paths promise
// results bit-identical to a direct run.
func diffResult(got, want result) []string {
	var diffs []string
	u := func(name string, g, w uint64) {
		if g != w {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", name, g, w))
		}
	}
	f := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", name, g, w))
		}
	}
	if got.Bench != want.Bench || got.Scheme != want.Scheme || got.Insts != want.Insts {
		diffs = append(diffs, fmt.Sprintf("key %s/%s/%d != %s/%s/%d",
			got.Bench, got.Scheme, got.Insts, want.Bench, want.Scheme, want.Insts))
	}
	u("cycles", got.Cycles, want.Cycles)
	f("ipc", got.IPC, want.IPC)
	f("avg_power", got.AvgPower, want.AvgPower)
	f("baseline_power", got.BaselinePower, want.BaselinePower)
	f("saving", got.Saving, want.Saving)
	u("gate_violations", got.GateViolations, want.GateViolations)
	if !got.sweepRow && !want.sweepRow {
		u("committed", got.Committed, want.Committed)
		u("lead_violations", got.LeadViolations, want.LeadViolations)
	}
	return diffs
}

// dcgFamily are the schemes that must never clock-gate a structure one
// cycle too late: a non-zero lead-violation count fails the op.
var dcgFamily = map[string]bool{"dcg": true, "oracle": true, "dcg+ddcg": true, "dcg+plb": true}

// checkOp validates an op's results against what it asked for.
func checkOp(o op, results []result) error {
	if len(results) != len(o.Schemes) {
		return fmt.Errorf("%v: %d results for %d schemes", o, len(results), len(o.Schemes))
	}
	for i, r := range results {
		if r.Bench != o.Bench || r.Scheme != o.Schemes[i] || r.Insts != o.Insts {
			return fmt.Errorf("%v: result %d is for %s/%s/%d", o, i, r.Bench, r.Scheme, r.Insts)
		}
		if r.Cycles == 0 {
			return fmt.Errorf("%v: %s simulated zero cycles", o, r.Scheme)
		}
		if dcgFamily[r.Scheme] && r.LeadViolations != 0 {
			return fmt.Errorf("%v: %s has %d lead violations", o, r.Scheme, r.LeadViolations)
		}
	}
	return nil
}

// refEvery is the reference-check stride: every refEvery-th op is
// re-derived after the measured window.
const refEvery = 8

// referenceCheck re-derives every result of every refEvery-th successful
// op with core.Simulator.RunBenchmarkContext, the direct-run reference
// engine, and returns the ops it checked plus, per op ID, the mismatches.
func referenceCheck(ctx context.Context, recs []record) (checked int, bad map[int][]string) {
	type job struct {
		id int
		r  result
	}
	var jobs []job
	for i := range recs {
		rec := &recs[i]
		if rec.op.ID%refEvery != 0 || rec.err != nil {
			continue
		}
		checked++
		for _, r := range rec.results {
			jobs = append(jobs, job{rec.op.ID, r})
		}
	}
	bad = make(map[int][]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			var diffs []string
			want, err := core.NewSimulator(config.Default()).RunBenchmarkContext(
				ctx, j.r.Bench, core.SchemeKind(j.r.Scheme), j.r.Insts)
			if err != nil {
				diffs = []string{fmt.Sprintf("%s/%s: reference run: %v", j.r.Bench, j.r.Scheme, err)}
			} else {
				for _, d := range diffResult(j.r, fromCore(j.r.Bench, j.r.Scheme, j.r.Insts, want)) {
					diffs = append(diffs, j.r.Scheme+": "+d)
				}
			}
			if len(diffs) > 0 {
				mu.Lock()
				bad[j.id] = append(bad[j.id], diffs...)
				mu.Unlock()
			}
		}(j)
	}
	wg.Wait()
	return checked, bad
}

// simAnchors sums the simulated work and averages DCG's power saving by
// suite class. They are deterministic counts of the model (identical for
// every run of one seed), not timings.
func simAnchors(recs []record) map[string]float64 {
	out := map[string]float64{}
	var cycles uint64
	var intSave, fpSave []float64
	for i := range recs {
		for _, r := range recs[i].results {
			cycles += r.Cycles
			if r.Scheme != "dcg" {
				continue
			}
			if p, ok := workload.ByName(r.Bench); ok && p.Class == workload.ClassInt {
				intSave = append(intSave, 100*r.Saving)
			} else {
				fpSave = append(fpSave, 100*r.Saving)
			}
		}
	}
	out["sim.cycles_total"] = float64(cycles)
	if len(intSave) > 0 {
		out["sim.dcg_saving_int_pct"] = mean(intSave)
	}
	if len(fpSave) > 0 {
		out["sim.dcg_saving_fp_pct"] = mean(fpSave)
	}
	return out
}

// Paper anchors: the source paper's DCG power saving, suite means over
// SPEC2000 integer and floating-point benchmarks.
const (
	paperDCGIntPct = 20.9
	paperDCGFPPct  = 18.8
)
