package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.")
	g := r.Gauge("test_inflight", "In-flight requests.")
	c.Add(41)
	c.Inc()
	g.Set(7)
	g.Add(-3)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_requests_total Requests served.",
		"# TYPE test_requests_total counter",
		"test_requests_total 42",
		"# TYPE test_inflight gauge",
		"test_inflight 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_served_total", "Served.", "route")
	v.With("/v1/sim").Add(3)
	v.With(`we"ird\label` + "\n").Inc()

	out := scrape(t, r)
	if !strings.Contains(out, `test_served_total{route="/v1/sim"} 3`) {
		t.Errorf("missing labeled series:\n%s", out)
	}
	if !strings.Contains(out, `test_served_total{route="we\"ird\\label\n"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

func TestHistogramBucketsAreCumulativeAndConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}

	out := scrape(t, r)
	// le semantics: v <= bound. 0.1 lands in the 0.1 bucket.
	wantLines := []string{
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestHistogramVecSplicesLELabel(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_dur_seconds", "Duration.", []float64{1}, "route")
	v.With("/x").Observe(0.5)

	out := scrape(t, r)
	if !strings.Contains(out, `test_dur_seconds_bucket{route="/x",le="1"} 1`) {
		t.Errorf("le label not spliced into existing braces:\n%s", out)
	}
	if !strings.Contains(out, `test_dur_seconds_bucket{route="/x",le="+Inf"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `test_dur_seconds_sum{route="/x"} 0.5`) {
		t.Errorf("sum line missing:\n%s", out)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 3.0
	r.GaugeFunc("test_resident", "Resident.", func() float64 { return n })
	r.CounterFunc("test_hits_total", "Hits.", func() float64 { return 12 })

	out := scrape(t, r)
	if !strings.Contains(out, "test_resident 3\n") || !strings.Contains(out, "test_hits_total 12\n") {
		t.Errorf("callback metrics missing:\n%s", out)
	}
	n = 4
	if !strings.Contains(scrape(t, r), "test_resident 4\n") {
		t.Error("GaugeFunc not re-read at scrape time")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

func TestNonAscendingBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-ascending buckets did not panic")
		}
	}()
	r.Histogram("bad_hist", "x", []float64{1, 1})
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestRegistrationOrderIsStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Counter("aa_total", "a")
	out := scrape(t, r)
	if strings.Index(out, "zz_total") > strings.Index(out, "aa_total") {
		t.Error("families not rendered in registration order")
	}
}

func TestExpositionIsDeterministic(t *testing.T) {
	// Two scrapes of a quiesced registry must agree byte-for-byte,
	// including the ordering of labeled series inside each family —
	// scrape-diffing tools and golden tests depend on it.
	r := NewRegistry()
	v := r.CounterVec("det_total", "d", "route")
	for _, route := range []string{"/z", "/a", "/m", "/b"} {
		v.With(route).Inc()
	}
	h := r.HistogramVec("det_seconds", "d", []float64{1, 10}, "mode")
	h.With("capture").Observe(0.5)
	h.With("replay").Observe(2)

	first := scrape(t, r)
	for i := 0; i < 5; i++ {
		if got := scrape(t, r); got != first {
			t.Fatalf("scrape %d differs from the first:\n--- first\n%s\n--- got\n%s", i, first, got)
		}
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	// Hammer every instrument kind while scraping; run under -race this
	// doubles as the registry's concurrency contract test.
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	g := r.Gauge("conc_gauge", "g")
	cv := r.CounterVec("conc_served_total", "cv", "src")
	hv := r.HistogramVec("conc_dur_seconds", "hv", []float64{0.01, 0.1, 1}, "mode")

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := []string{"cache", "store", "replayed"}[w%3]
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				cv.With(src).Inc()
				hv.With("capture").Observe(float64(i) / perWriter)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("concurrent WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	out := scrape(t, r)
	want := fmt.Sprintf("conc_total %d", writers*perWriter)
	if !strings.Contains(out, want+"\n") {
		t.Errorf("final exposition missing %q:\n%s", want, out)
	}
	wantH := fmt.Sprintf(`conc_dur_seconds_count{mode="capture"} %d`, writers*perWriter)
	if !strings.Contains(out, wantH+"\n") {
		t.Errorf("final exposition missing %q", wantH)
	}
}
