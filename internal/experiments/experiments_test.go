package experiments

import (
	"strings"
	"testing"

	"dcg/internal/core"
	"dcg/internal/simrun"
)

// fastRunner uses a reduced benchmark set and instruction budget so the
// whole figure suite stays test-sized; the shape assertions below hold at
// this scale. The runner is shared so memoised simulation runs are reused
// across the figure tests.
var sharedRunner = NewRunner(Options{
	Insts:      40_000,
	Warmup:     30_000,
	Benchmarks: []string{"gzip", "mcf", "swim", "mesa"},
})

func fastRunner() *Runner { return sharedRunner }

func TestFig10Shape(t *testing.T) {
	r := fastRunner()
	c, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != 3 {
		t.Fatalf("series count = %d", len(c.Series))
	}
	dcg, orig, ext := c.Series[0], c.Series[1], c.Series[2]
	for _, b := range r.Benchmarks() {
		if !(dcg.Values[b] > ext.Values[b]) {
			t.Errorf("%s: DCG %.3f not above PLB-ext %.3f", b, dcg.Values[b], ext.Values[b])
		}
		if ext.Values[b] < orig.Values[b]-1e-9 {
			t.Errorf("%s: PLB-ext %.3f below PLB-orig %.3f", b, ext.Values[b], orig.Values[b])
		}
		if dcg.Values[b] < 0.1 || dcg.Values[b] > 0.45 {
			t.Errorf("%s: DCG saving %.3f outside band", b, dcg.Values[b])
		}
	}
	// mcf is DCG's best case.
	if dcg.Values["mcf"] <= dcg.Values["gzip"] {
		t.Error("mcf not DCG's best case")
	}
	if !strings.Contains(c.Table().String(), "int-avg") {
		t.Error("table missing suite averages")
	}
	var csv strings.Builder
	if err := c.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchmark,dcg,plb-orig,plb-ext\n", "\ngzip,", "\nswim,"} {
		if !strings.Contains(csv.String(), want) {
			t.Errorf("csv missing %q:\n%s", want, csv.String())
		}
	}
}

// TestFig10OneTimingRunPerBenchmark is the capture-once acceptance test:
// regenerating Figure 10 (baseline + DCG + both PLBs over every
// benchmark) must execute exactly one core timing simulation per
// (benchmark, machine, capture throttle). The timing-neutral schemes —
// none and dcg here — share one captured trace, and each PLB variant has
// one under its own throttle; only the captures are timing misses.
func TestFig10OneTimingRunPerBenchmark(t *testing.T) {
	benches := []string{"gzip", "swim"}
	r := NewRunner(Options{Insts: 30_000, Warmup: 20_000, Benchmarks: benches})
	if _, err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	st := r.TimingStats()
	if st.Misses != uint64(3*len(benches)) {
		t.Errorf("Fig10 executed %d timing simulations for %d benchmarks, want exactly three each",
			st.Misses, len(benches))
	}
	// Each benchmark's second neutral scheme came from replay.
	if st.Hits+st.Coalesced != uint64(len(benches)) {
		t.Errorf("timing cache served %d replays (%d hits + %d coalesced), want %d",
			st.Hits+st.Coalesced, st.Hits, st.Coalesced, len(benches))
	}
	// Fig11 reuses the same keys: no new timing work at all.
	if _, err := r.Fig11(); err != nil {
		t.Fatal(err)
	}
	if st2 := r.TimingStats(); st2.Misses != st.Misses {
		t.Errorf("Fig11 re-ran %d timing simulations", st2.Misses-st.Misses)
	}
}

func TestFig11PowerDelayShape(t *testing.T) {
	r := fastRunner()
	p10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	p11, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// DCG has no performance loss, so its power-delay saving equals its
	// power saving; PLB's power-delay saving is at most its power saving.
	for _, b := range r.Benchmarks() {
		d10 := p10.Series[0].Values[b]
		d11 := p11.Series[0].Values[b]
		if !near(d10, d11, 1e-9) {
			t.Errorf("%s: DCG power-delay %.4f != power %.4f", b, d11, d10)
		}
		if p11.Series[2].Values[b] > p10.Series[2].Values[b]+1e-9 {
			t.Errorf("%s: PLB-ext power-delay above its power saving", b)
		}
	}
}

func near(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol+tol*b
}

func TestFig12To16PerStructure(t *testing.T) {
	r := fastRunner()
	figs := []struct {
		name string
		run  func() (*Comparison, error)
	}{
		{"fig12", r.Fig12}, {"fig13", r.Fig13}, {"fig14", r.Fig14},
		{"fig15", r.Fig15}, {"fig16", r.Fig16},
	}
	for _, f := range figs {
		c, err := f.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Series) != 2 {
			t.Fatalf("%s: series = %d", f.name, len(c.Series))
		}
		dcg, ext := c.Series[0], c.Series[1]
		for _, b := range r.Benchmarks() {
			if dcg.Values[b] < -1e-9 || dcg.Values[b] > 1+1e-9 {
				t.Errorf("%s/%s: DCG value %.3f out of range", f.name, b, dcg.Values[b])
			}
			if dcg.Values[b] < ext.Values[b]-1e-9 {
				t.Errorf("%s/%s: DCG %.3f below PLB-ext %.3f (paper: DCG uniformly better)",
					f.name, b, dcg.Values[b], ext.Values[b])
			}
		}
	}
}

func TestFig13FPUnitsOnIntegerCode(t *testing.T) {
	r := fastRunner()
	c, err := r.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Series[0].Values["gzip"]; got < 0.95 {
		t.Errorf("DCG FPU saving on gzip = %.3f, want ~1 (paper: near-total)", got)
	}
}

// TestGatingFamiliesShape drives the extended-scheme comparison: every
// family produces a series, the value-tightened hybrid never loses to
// plain DCG (its latch slots are cycle-wise a subset), and the capture
// DAG splits into exactly two timing groups per benchmark — usage-only
// and latchvalue-carrying — with the PLB hybrid fully simulated.
func TestGatingFamiliesShape(t *testing.T) {
	benches := []string{"gzip", "swim"}
	r := NewRunner(Options{Insts: 30_000, Warmup: 20_000, Benchmarks: benches})
	c, err := r.GatingFamilies()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != len(familySchemes) {
		t.Fatalf("series count = %d, want %d", len(c.Series), len(familySchemes))
	}
	byScheme := map[string]SchemeSeries{}
	for _, s := range c.Series {
		byScheme[s.Scheme] = s
	}
	for _, b := range benches {
		if v := byScheme["ddcg"].Values[b]; v <= 0 {
			t.Errorf("%s: ddcg saving %.4f, want positive", b, v)
		}
		if d, h := byScheme["dcg"].Values[b], byScheme["dcg+ddcg"].Values[b]; h < d {
			t.Errorf("%s: dcg+ddcg saving %.4f below plain dcg %.4f", b, h, d)
		}
	}
	// Three timing captures per benchmark: the usage-only group (none,
	// dcg, lector), the latchvalue group (ddcg, dcg+ddcg) and dcg+plb's,
	// under plb-ext's throttle.
	if st := r.TimingStats(); st.Misses != uint64(3*len(benches)) {
		t.Errorf("families ran %d timing simulations for %d benchmarks, want 3 each",
			st.Misses, len(benches))
	}
}

func TestFig17DeepPipeline(t *testing.T) {
	r := fastRunner()
	c, err := r.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	s8, s20 := c.Series[0], c.Series[1]
	// Suite-wide: deeper pipeline increases DCG's savings.
	if !(s20.IntMean+s20.FPMean > s8.IntMean+s8.FPMean) {
		t.Errorf("20-stage mean (%.3f/%.3f) not above 8-stage (%.3f/%.3f)",
			s20.IntMean, s20.FPMean, s8.IntMean, s8.FPMean)
	}
}

func TestALUSweep(t *testing.T) {
	r := NewRunner(Options{
		Insts:      40_000,
		Warmup:     30_000,
		Benchmarks: []string{"gzip", "swim"},
	})
	s, err := r.Sec44ALUSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if s.Rows[0].IntALUs != 8 || s.Rows[1].IntALUs != 6 || s.Rows[2].IntALUs != 4 {
		t.Fatal("sweep order wrong")
	}
	// Monotone: fewer ALUs never helps.
	if s.Rows[1].RelPerf > 1.001 || s.Rows[2].RelPerf > s.Rows[1].RelPerf+1e-9 {
		t.Errorf("relative performance not monotone: %+v", s.Rows)
	}
	// Shape: 6 ALUs nearly free, 4 visibly worse (paper: 98.8%/92.7%).
	if s.Rows[1].RelPerf < 0.93 {
		t.Errorf("6-ALU rel perf %.3f; should be close to 1", s.Rows[1].RelPerf)
	}
	if s.Table().String() == "" {
		t.Error("empty sweep table")
	}
}

func TestUtilizationReport(t *testing.T) {
	r := fastRunner()
	u, err := r.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rows) != 4 {
		t.Fatalf("rows = %d", len(u.Rows))
	}
	for _, row := range u.Rows {
		if row.Util.IntUnits < 0 || row.Util.IntUnits > 1 {
			t.Errorf("%s: int util %v", row.Bench, row.Util.IntUnits)
		}
	}
	if !strings.Contains(u.Table().String(), "latches") {
		t.Error("utilisation table malformed")
	}
}

func TestPerfLoss(t *testing.T) {
	r := fastRunner()
	c, err := r.PerfLoss()
	if err != nil {
		t.Fatal(err)
	}
	dcg := c.Series[0]
	for _, b := range r.Benchmarks() {
		if dcg.Values[b] != 0 {
			t.Errorf("%s: DCG perf loss %.5f != 0", b, dcg.Values[b])
		}
	}
	ext := c.Series[2]
	for _, b := range r.Benchmarks() {
		if ext.Values[b] < -1e-9 || ext.Values[b] > 0.2 {
			t.Errorf("%s: PLB-ext perf loss %.3f out of band", b, ext.Values[b])
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"8-way", "128", "64KB", "2MB", "100-cycle"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestPrefetchSurfacesErrors(t *testing.T) {
	r := NewRunner(Options{Insts: 1000, Benchmarks: []string{"no-such-benchmark"}})
	err := r.prefetch([]simrun.Key{r.key("no-such-benchmark", core.SchemeNone, false, 0)})
	if err == nil {
		t.Fatal("prefetch swallowed the simulation error")
	}
	if !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("error does not identify the failing run: %v", err)
	}
	// The figure harnesses must propagate the parallel pass's failure.
	if _, err := r.Fig10(); err == nil {
		t.Error("Fig10 ignored the prefetch failure")
	}
}

func TestRunnerMemoisation(t *testing.T) {
	r := fastRunner()
	a, err := r.result("gzip", core.SchemeDCG, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.result("gzip", core.SchemeDCG, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("runner re-simulated a cached configuration")
	}
}
