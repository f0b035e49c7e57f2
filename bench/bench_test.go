package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcg/internal/workload"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// layersOf returns the layer names BENCHMARK.json lists: the prefix of
// every per-layer metric name.
func layersOf(b benchmarkFile) map[string]bool {
	out := map[string]bool{}
	for _, m := range b.PerLayer {
		if layer, _, ok := strings.Cut(m.Name, "."); ok {
			out[layer] = true
		}
	}
	return out
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %v, the benchmark's default is %v", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q (%q), defined %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, defined %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, defined %v", layer, perLayer)
	}
}

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	sz := sizing{seconds: runSeconds}
	for _, w := range workloads {
		a, b := planOps(w, 1, sz), planOps(w, 1, sz)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 planned two different op lists", w.name)
		}
		if reflect.DeepEqual(a, planOps(w, 2, sz)) {
			t.Errorf("%s: seeds 1 and 2 planned the same op list", w.name)
		}
		perBench := map[string]int{}
		for _, o := range a {
			perBench[o.Bench]++
		}
		for _, b := range workload.Names() {
			if perBench[b] != len(a)/len(workload.Names()) {
				t.Errorf("%s: %s planned %d times in %d ops, want every benchmark equally often", w.name, b, perBench[b], len(a))
			}
		}
		// Every round asks for the same instructions of each benchmark.
		size := roundSize(sz)
		var want map[string]uint64
		for lo := 0; lo < len(a); lo += size {
			got := map[string]uint64{}
			for _, o := range a[lo : lo+size] {
				got[o.Bench] += o.Insts
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: round at op %d asks for %v instructions, the first for %v", w.name, lo, got, want)
			}
		}
		type key struct {
			bench string
			insts uint64
		}
		seen := map[key]bool{}
		for _, o := range a {
			if seen[key{o.Bench, o.Insts}] {
				t.Errorf("%s: %s at %d insts planned twice; every key must be fresh", w.name, o.Bench, o.Insts)
			}
			seen[key{o.Bench, o.Insts}] = true
			if o.Insts < w.instsLo || o.Insts >= w.instsHi {
				t.Errorf("%s: insts %d outside [%d, %d)", w.name, o.Insts, w.instsLo, w.instsHi)
			}
		}
		for r := 1; r <= setupRounds; r++ {
			if warmupInsts(w, sz, r) >= w.instsLo {
				t.Errorf("%s: warm-up round %d falls in the measured insts range", w.name, r)
			}
		}
	}
}

func TestDiffResultFlagsEveryField(t *testing.T) {
	base := result{
		Bench: "gzip", Scheme: "dcg", Insts: 1000, Cycles: 900, Committed: 1000,
		IPC: 1.1, AvgPower: 20.5, BaselinePower: 30.25, Saving: 0.21,
		LeadViolations: 0, GateViolations: 0,
	}
	if d := diffResult(base, base); len(d) != 0 {
		t.Fatalf("identical results differ: %v", d)
	}
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for name, mutate := range map[string]func(*result){
		"bench":           func(r *result) { r.Bench = "mcf" },
		"scheme":          func(r *result) { r.Scheme = "none" },
		"insts":           func(r *result) { r.Insts++ },
		"cycles":          func(r *result) { r.Cycles++ },
		"committed":       func(r *result) { r.Committed++ },
		"ipc":             func(r *result) { r.IPC = next(r.IPC) },
		"avg_power":       func(r *result) { r.AvgPower = next(r.AvgPower) },
		"baseline_power":  func(r *result) { r.BaselinePower = next(r.BaselinePower) },
		"saving":          func(r *result) { r.Saving = next(r.Saving) },
		"lead_violations": func(r *result) { r.LeadViolations++ },
		"gate_violations": func(r *result) { r.GateViolations++ },
	} {
		got := base
		mutate(&got)
		if d := diffResult(got, base); len(d) == 0 {
			t.Errorf("changing %s went unflagged", name)
		}
	}
}

func TestPerRoundSkipsFailedOpsAndEmptyRounds(t *testing.T) {
	at := func(s float64) time.Time { return epoch.Add(time.Duration(s * float64(time.Second))) }
	rec := func(due, done float64, cpuDue, cpuDone time.Duration, err error) record {
		return record{due: at(due), done: at(done), cpuDue: cpuDue, cpuDone: cpuDone, err: err}
	}
	fail := context.Canceled
	recs := []record{
		// Round 1: two ops over 0.5 s and 300 ms of CPU, one of them failed.
		rec(0, 0.2, 0, 100*time.Millisecond, nil),
		rec(0.2, 0.5, 100*time.Millisecond, 300*time.Millisecond, fail),
		// Round 2: both failed, so it is left out.
		rec(0.5, 0.6, 300*time.Millisecond, 400*time.Millisecond, fail),
		rec(0.6, 0.7, 400*time.Millisecond, 500*time.Millisecond, fail),
		// Round 3: a short last round of one op.
		rec(1, 1.25, time.Second, 1200*time.Millisecond, nil),
	}
	opsPerS, cpuMs := perRound(recs, 2)
	wantOps, wantCPU := []float64{2, 4}, []float64{300, 200}
	if len(opsPerS) != 2 || len(cpuMs) != 2 {
		t.Fatalf("got %v ops/s and %v ms per op, want two rounds", opsPerS, cpuMs)
	}
	for i := range wantOps {
		if math.Abs(opsPerS[i]-wantOps[i]) > 1e-9 || math.Abs(cpuMs[i]-wantCPU[i]) > 1e-9 {
			t.Errorf("round %d: %v ops/s, %v ms per op; want %v, %v", i, opsPerS[i], cpuMs[i], wantOps[i], wantCPU[i])
		}
	}
}

func TestAttributeChargesWorkBeforeWaits(t *testing.T) {
	// A batch op: item A captures for 60 then decodes for 40; item B waits
	// on A's capture, then waits on A's decode of the same trace, then
	// replays for 10 while A puts its result.
	spans := []*span{
		{ID: 1, Layer: "bench", Name: "op", Start: 0, End: 110},
		{ID: 2, Parent: 1, Layer: "simrun", Name: "lookup", Start: 0, End: 110},
		{ID: 3, Parent: 2, Layer: "core", Name: "capture", Start: 0, End: 60},
		{ID: 4, Parent: 2, Layer: "usagetrace", Name: "decode", Start: 60, End: 100, Trace: 1},
		{ID: 5, Parent: 2, Layer: "store", Name: "put_result", Start: 100, End: 110},
		{ID: 6, Parent: 1, Layer: "simrun", Name: "lookup", Start: 0, End: 110},
		{ID: 7, Parent: 6, Layer: "usagetrace", Name: "decode", Start: 61, End: 100, Trace: 1},
		{ID: 8, Parent: 6, Layer: "core", Name: "replay", Start: 100, End: 110},
		{ID: 9, Calibrates: 3, Layer: "core", Name: "direct", Start: 200, End: 250},
	}
	got := attribute(spans, decoders(spans))
	want := map[int]int64{3: 60, 4: 40, 5: 5, 8: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d charged %d, want %d", id, got[id], w)
		}
	}
	var sum int64
	for id, c := range got {
		if id == 9 {
			t.Errorf("calibration span charged %d", c)
		}
		sum += c
	}
	if sum != 110 {
		t.Errorf("charges sum to %d, want the op's 110", sum)
	}
}

// TestSmoke runs every workload at smoke size (3 ops of 20k instructions,
// one set-up round) with tracing on.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	layers := layersOf(b)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			res, err := runWorkload(ctx, runConfig{
				w: w, seed: 1, sz: sizing{smoke: true}, trace: true,
				spans: spansPath, tmpRoot: t.TempDir(), started: time.Now(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Reported["error_rate"].Value != 0 {
				t.Errorf("correct=%v failed=%d error_rate=%v: %v", res.Correct, res.Failed, res.Reported["error_rate"], res.Failures)
			}
			for _, d := range reported {
				if got, ok := res.Reported[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("reported %s: got %+v (present %v), want unit %s", d.name, got, ok, d.unit)
				}
			}
			if res.Attempted != 3 || res.RefChecked < 1 {
				t.Errorf("attempted %d ops, reference-checked %d", res.Attempted, res.RefChecked)
			}
			for _, m := range b.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, got.Value)
				}
			}
			for _, m := range b.PerLayer {
				if got, ok := res.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if res.Sim["sim.cycles_total"] <= 0 {
				t.Errorf("sim.cycles_total = %v", res.Sim["sim.cycles_total"])
			}
			checkSpans(t, readSpans(t, spansPath), layers)
		})
	}
}

func readSpans(t *testing.T, path string) []*span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []*span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, &s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	return spans
}

// checkSpans asserts that child spans nest inside their parents within
// one op, that every span names a listed layer, and that every charged
// (self) time is non-negative and an op's charges sum to its duration.
func checkSpans(t *testing.T, spans []*span, layers map[string]bool) {
	t.Helper()
	byID := map[int]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := map[int]*span{}
	for _, s := range spans {
		if !layers[s.Layer] {
			t.Errorf("span %d (%s.%s) names a layer BENCHMARK.json does not list", s.ID, s.Layer, s.Name)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			if s.Calibrates == 0 {
				roots[s.Op] = s
			}
			continue
		}
		p := byID[s.Parent]
		if p == nil || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s.%s) does not nest inside its parent %d", s.ID, s.Layer, s.Name, s.Parent)
		}
	}
	charge := attribute(spans, decoders(spans))
	sums := map[int]int64{}
	for id, c := range charge {
		if c < 0 {
			t.Errorf("span %d charged %d ns", id, c)
		}
		sums[byID[id].Op] += c
	}
	for op, root := range roots {
		if d := root.dur() - sums[op]; d < 0 || d > 1000 {
			t.Errorf("op %d: charges sum to %d ns, root lasted %d ns", op, sums[op], root.dur())
		}
	}
}
