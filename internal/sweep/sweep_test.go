package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/core"
	"dcg/internal/simrun"
)

// testSpec is a small three-benchmark, three-scheme spec (9 items with
// one exclusion = 8).
func testSpec() *Spec {
	return &Spec{
		Name:       "unit",
		Benchmarks: []string{"gzip", "mcf", "art"},
		Schemes:    []string{"none", "dcg", "plb-ext"},
		MaxInsts:   1000,
		Exclude:    []Rule{{Bench: "art", Scheme: "plb-ext"}},
	}
}

// countingEngine builds an engine over fake executor seams that count
// invocations per layer.
func countingEngine() (*Engine, *atomic.Int32, *atomic.Int32, *atomic.Int32) {
	e := simrun.NewExec(0, 0)
	var fulls, captures, evals atomic.Int32
	e.Full = func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		fulls.Add(1)
		return fakeResult(k), nil
	}
	e.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		captures.Add(1)
		return fakeResult(k), &core.Timing{Benchmark: k.Bench}, nil
	}
	e.Evaluate = func(k simrun.Key, t *core.Timing) (*core.Result, error) {
		evals.Add(1)
		return fakeResult(k), nil
	}
	return &Engine{Exec: e, Workers: 4}, &fulls, &captures, &evals
}

// fakeResult derives a deterministic result from the key so resumed and
// uninterrupted runs can be compared byte for byte.
func fakeResult(k simrun.Key) *core.Result {
	return &core.Result{
		Benchmark: k.Bench, Scheme: k.Scheme.String(),
		Cycles: k.Insts * 2, IPC: 1.5,
		AvgPower: 40.25, BaselinePower: 52.5, Saving: 0.2333984375,
	}
}

func TestSpecExpansionDeterministicWithExclusions(t *testing.T) {
	spec := testSpec()
	items, err := spec.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 8 {
		t.Fatalf("expanded %d items, want 8 (9 minus 1 excluded)", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
		if it.Key.Bench == "art" && it.Key.Scheme == core.SchemePLBExt {
			t.Fatal("excluded point survived expansion")
		}
	}
	// Expansion order is part of the format: benchmarks, then machines,
	// then schemes.
	if items[0].Key.Bench != "gzip" || items[0].Key.Scheme != core.SchemeNone ||
		items[1].Key.Scheme != core.SchemeDCG {
		t.Fatalf("expansion order changed: first items %+v, %+v", items[0].Key, items[1].Key)
	}
	again, _ := spec.Items()
	for i := range items {
		if items[i] != again[i] {
			t.Fatal("expansion is not deterministic")
		}
	}
}

// invalidSpecs are specs Items must reject, one per validation rule; the
// spec fuzzer seeds from them too.
func invalidSpecs() map[string]*Spec {
	return map[string]*Spec{
		"no name":        {Benchmarks: []string{"gzip"}, Schemes: []string{"dcg"}, MaxInsts: 1},
		"no benchmarks":  {Name: "x", Schemes: []string{"dcg"}, MaxInsts: 1},
		"bad benchmark":  {Name: "x", Benchmarks: []string{"quake9"}, Schemes: []string{"dcg"}, MaxInsts: 1},
		"bad scheme":     {Name: "x", Benchmarks: []string{"gzip"}, Schemes: []string{"dcgg"}, MaxInsts: 1},
		"zero insts":     {Name: "x", Benchmarks: []string{"gzip"}, Schemes: []string{"dcg"}},
		"bad rule":       {Name: "x", Benchmarks: []string{"gzip"}, Schemes: []string{"dcg"}, MaxInsts: 1, Exclude: []Rule{{Scheme: "nope"}}},
		"excluded empty": {Name: "x", Benchmarks: []string{"gzip"}, Schemes: []string{"dcg"}, MaxInsts: 1, Exclude: []Rule{{}}},
		"int_alu > 32":   {Name: "x", Benchmarks: []string{"gzip"}, Schemes: []string{"dcg"}, MaxInsts: 1, Machines: []MachineSpec{{}, {IntALU: 33}}},
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range invalidSpecs() {
		if _, err := spec.Items(); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
	if _, err := Parse([]byte(`{"name":"x","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":10,"surprise":1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
}

func TestEngineCapturesOncePerTimingGroup(t *testing.T) {
	eng, fulls, captures, evals := countingEngine()
	sum, err := eng.Start(context.Background(), testSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Completed != 8 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want 8 completed / done", sum)
	}
	// 3 timing groups (one per benchmark) → 3 captures; none+dcg per
	// benchmark = 1 capture + 1 replay each; plb-ext on gzip/mcf = fulls.
	if captures.Load() != 3 {
		t.Errorf("captures = %d, want 3 (one per benchmark)", captures.Load())
	}
	if evals.Load() != 3 {
		t.Errorf("replays = %d, want 3", evals.Load())
	}
	if fulls.Load() != 2 {
		t.Errorf("full sims = %d, want 2 (plb-ext on gzip, mcf)", fulls.Load())
	}
}

// interruptAfter cancels a context once n items have completed.
func interruptAfter(e *Engine, n int32) (context.Context, *atomic.Int32) {
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int32
	inner := e.Exec.Evaluate
	e.Exec.Evaluate = func(k simrun.Key, t *core.Timing) (*core.Result, error) {
		r, err := inner(k, t)
		if count.Add(1) >= n {
			cancel()
		}
		return r, err
	}
	innerFull := e.Exec.Full
	e.Exec.Full = func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		r, err := innerFull(ctx, k)
		if count.Add(1) >= n {
			cancel()
		}
		return r, err
	}
	innerCap := e.Exec.Capture
	e.Exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		r, tm, err := innerCap(ctx, k)
		if count.Add(1) >= n {
			cancel()
		}
		return r, tm, err
	}
	return ctx, &count
}

// TestKillAndResumeByteIdentical is the tentpole acceptance test: an
// interrupted sweep resumed from its manifest (with a FRESH executor, so
// nothing is served from memory) re-executes zero completed items and
// produces a results.jsonl byte-identical to an uninterrupted run. The
// legacy input resumes a manifest whose ok records carry the
// "replay_par" provenance field earlier builds appended to every ok
// record: manifests outlive the binary that wrote them, and the field
// must be ignored.
func TestKillAndResumeByteIdentical(t *testing.T) {
	spec := testSpec()

	// Reference: uninterrupted run.
	refDir := t.TempDir()
	engRef, _, _, _ := countingEngine()
	if _, err := engRef.Start(context.Background(), spec, refDir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		legacy bool
	}{{"current", false}, {"legacy-replay-par", true}} {
		t.Run(tc.name, func(t *testing.T) {
			// Interrupted run: cancel mid-flight.
			dir := t.TempDir()
			engA, _, _, _ := countingEngine()
			ctx, _ := interruptAfter(engA, 3)
			sumA, err := engA.Start(ctx, spec, dir)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			if sumA.Completed == 0 || sumA.Completed == sumA.Total {
				t.Fatalf("interruption completed %d/%d items; the test needs a strict subset",
					sumA.Completed, sumA.Total)
			}
			if _, err := os.Stat(filepath.Join(dir, ResultsFile)); !os.IsNotExist(err) {
				t.Fatal("interrupted run wrote results.jsonl")
			}
			if tc.legacy {
				injectReplayPar(t, dir)
			}

			// Resume with a FRESH engine: empty in-memory caches, so any
			// redone item would hit the counting seams.
			engB, fulls, captures, evals := countingEngine()
			sumB, err := engB.Resume(context.Background(), dir)
			if err != nil {
				t.Fatal(err)
			}
			if !sumB.Done {
				t.Fatalf("resume did not finish: %+v", sumB)
			}
			if sumB.Skipped != sumA.Completed {
				t.Errorf("resume skipped %d items, want the %d completed before the kill",
					sumB.Skipped, sumA.Completed)
			}
			if sumB.Skipped+sumB.Completed != sumB.Total {
				t.Errorf("skipped %d + completed %d != total %d", sumB.Skipped, sumB.Completed, sumB.Total)
			}
			executed := int(fulls.Load() + captures.Load() + evals.Load())
			if executed != sumB.Completed {
				t.Errorf("resume executed %d simulations for %d pending items — completed work was redone",
					executed, sumB.Completed)
			}

			got, err := os.ReadFile(filepath.Join(dir, ResultsFile))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("resumed results.jsonl differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, want)
			}
		})
	}
}

// injectReplayPar rewrites a job's manifest so every ok item record ends
// with a "replay_par" field, byte for byte as earlier builds wrote it.
func injectReplayPar(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	injected := 0
	for i, line := range lines {
		body := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(body, `{"type":"item"`) && strings.Contains(body, `"status":"ok"`) &&
			strings.HasSuffix(body, "}") {
			lines[i] = strings.TrimSuffix(body, "}") + `,"replay_par":2}` + "\n"
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no ok item records to inject replay_par into")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRerunsFailedItems(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()

	eng, _, _, _ := countingEngine()
	boom := errors.New("transient")
	failing := map[string]bool{"mcf": true}
	inner := eng.Exec.Capture
	eng.Exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		if failing[k.Bench] {
			return nil, nil, boom
		}
		return inner(ctx, k)
	}
	innerEval := eng.Exec.Evaluate
	eng.Exec.Evaluate = func(k simrun.Key, tm *core.Timing) (*core.Result, error) {
		if failing[k.Bench] {
			return nil, boom
		}
		return innerEval(k, tm)
	}
	sum, err := eng.Start(context.Background(), spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed == 0 || sum.Done {
		t.Fatalf("summary %+v, want failures and not done", sum)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != sum.Failed || st.OK != sum.Completed || st.Done {
		t.Fatalf("status %+v does not match summary %+v", st, sum)
	}

	// Heal the fault and resume: only the failed items re-run.
	eng2, _, captures, _ := countingEngine()
	sum2, err := eng2.Resume(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sum2.Done || sum2.Completed != sum.Failed {
		t.Fatalf("resume summary %+v, want %d completed and done", sum2, sum.Failed)
	}
	if captures.Load() != 1 {
		t.Errorf("resume captured %d timings, want 1 (mcf only)", captures.Load())
	}
	if st, _ := ReadStatus(dir); !st.Done || st.Failed != 0 || st.OK != st.Total {
		t.Fatalf("status after healing resume: %+v", st)
	}
}

func TestResumeRefusesEditedSpec(t *testing.T) {
	dir := t.TempDir()
	eng, _, _, _ := countingEngine()
	if _, err := eng.Start(context.Background(), testSpec(), dir); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.MaxInsts = 2000
	if err := writeSpec(dir, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Resume(context.Background(), dir); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("resume under an edited spec: err = %v, want spec-hash refusal", err)
	}
}

func TestStartRefusesExistingManifest(t *testing.T) {
	dir := t.TempDir()
	eng, _, _, _ := countingEngine()
	if _, err := eng.Start(context.Background(), testSpec(), dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Start(context.Background(), testSpec(), dir); !errors.Is(err, ErrExists) {
		t.Fatalf("second Start: err = %v, want ErrExists", err)
	}
}

func TestManifestToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	eng, _, _, _ := countingEngine()
	if _, err := eng.Start(context.Background(), testSpec(), dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A kill mid-append leaves a torn final line.
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, records, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(records) != hdr.Items-1 {
		t.Fatalf("torn tail: %d surviving records, want %d", len(records), hdr.Items-1)
	}
	// Mid-file damage, by contrast, must be loud.
	lines := strings.SplitAfter(string(raw), "\n")
	lines[2] = "{broken\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(dir); err == nil {
		t.Fatal("mid-file manifest corruption went undetected")
	}
}

func TestRunKeysSchedulesLikePrefetch(t *testing.T) {
	eng, fulls, captures, evals := countingEngine()
	var keys []simrun.Key
	for _, b := range []string{"gzip", "mcf"} {
		for _, s := range []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle} {
			keys = append(keys, simrun.Key{Bench: b, Scheme: s, Insts: 500})
		}
	}
	if err := eng.RunKeys(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	if captures.Load() != 2 || evals.Load() != 4 || fulls.Load() != 0 {
		t.Errorf("RunKeys executed captures=%d evals=%d fulls=%d, want 2/4/0",
			captures.Load(), evals.Load(), fulls.Load())
	}
	// Errors surface as a first-error return.
	engFail, _, _, _ := countingEngine()
	engFail.Exec.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		return nil, nil, fmt.Errorf("no trace for %s", k.Bench)
	}
	if err := engFail.RunKeys(context.Background(), keys); err == nil {
		t.Fatal("RunKeys swallowed item failures")
	}
}

func TestRetryRecovers(t *testing.T) {
	eng, _, _, _ := countingEngine()
	eng.Retries = 2
	eng.Backoff = time.Millisecond
	var calls atomic.Int32
	eng.Exec.Full = func(ctx context.Context, k simrun.Key) (*core.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("flaky")
		}
		return fakeResult(k), nil
	}
	spec := &Spec{Name: "r", Benchmarks: []string{"gzip"}, Schemes: []string{"plb-orig"}, MaxInsts: 10}
	sum, err := eng.Start(context.Background(), spec, "")
	if err != nil || !sum.Done {
		t.Fatalf("retrying run: sum=%+v err=%v", sum, err)
	}
	if calls.Load() != 2 {
		t.Errorf("full ran %d times, want 2 (fail + retry)", calls.Load())
	}
}
