package usagetrace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

// tee hands every issue event and usage vector the core delivers to two
// Recorders, so both record the very same run.
type tee struct{ a, b *Recorder }

func (t tee) OnIssue(ev cpu.IssueEvent)      { t.a.OnIssue(ev); t.b.OnIssue(ev) }
func (t tee) OnCycle(u *cpu.Usage)           { t.a.OnCycle(u); t.b.OnCycle(u) }
func (t tee) OnQuiet(u *cpu.Usage, n uint64) { t.a.OnQuiet(u, n); t.b.OnQuiet(u, n) }

// TestViewOnlyRecorderMatchesRecorder records the 16 benchmarks on the
// Table 1 and deep machines, usage-only and with the latchvalue channel,
// with a Recorder and a view-only Recorder side by side on one core run.
// The view-only trace has the same metadata and a packed view equal to
// the other's in every field but the encoded stream, which it lacks. No
// cycle uses more D-ports than these machines have, so neither view
// holds the over-capacity D-port plane.
func TestViewOnlyRecorderMatchesRecorder(t *testing.T) {
	for _, m := range []struct {
		name string
		cfg  config.Config
	}{{"table1", config.Default()}, {"deep", config.Deep()}} {
		for _, bench := range workload.Names() {
			for _, extra := range [][]string{nil, {ChannelLatchValue}} {
				label := fmt.Sprintf("%s/%s/%v", m.name, bench, extra)
				full, view := recordBoth(t, m.cfg, bench, 20_000, extra)
				if view.SizeBytes() != 0 || full.SizeBytes() == 0 {
					t.Fatalf("%s: encoded sizes %d (view-only) and %d", label, view.SizeBytes(), full.SizeBytes())
				}
				if view.Name() != full.Name() || view.Cycles() != full.Cycles() ||
					view.BackLatchStages() != full.BackLatchStages() ||
					!reflect.DeepEqual(view.Channels(), full.Channels()) {
					t.Fatalf("%s: metadata differs: %q/%d/%d/%v against %q/%d/%d/%v", label,
						view.Name(), view.Cycles(), view.BackLatchStages(), view.Channels(),
						full.Name(), full.Cycles(), full.BackLatchStages(), full.Channels())
				}
				pv, err := view.Decode()
				if err != nil {
					t.Fatal(err)
				}
				pf, err := full.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if pv.data != nil || pf.data == nil {
					t.Fatalf("%s: view-only stream %d bytes, full stream %d bytes", label, len(pv.data), len(pf.data))
				}
				if pf.overDPort != nil {
					t.Fatalf("%s: a view that never exceeds its D-ports holds their plane", label)
				}
				a, b := *pv, *pf
				a.data, b.data = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s: the view-only packed view differs from the recorded one", label)
				}
			}
		}
	}
}

// TestStoreDelayViewBuildsDPortPlane: with stores delayed a cycle
// (config.StoreOneCycleDelay) a delayed store can land beside a cycle's
// loads and use more D-ports than the machine has. A Recorder told the
// ports builds the over-capacity D-port plane from the live usage, so a
// view-only trace serves it, equal to the one its bytes would give, and a
// trace with bytes need not re-read them for it.
func TestStoreDelayViewBuildsDPortPlane(t *testing.T) {
	cfg := config.Default()
	cfg.StoreDelayPolicy = config.StoreOneCycleDelay
	ports := cfg.DL1.Ports
	for _, bench := range []string{"bzip2", "gcc", "mcf"} {
		full, view := recordBoth(t, cfg, bench, 20_000, nil)
		pf, err := full.Decode()
		if err != nil {
			t.Fatal(err)
		}
		pv, err := view.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if pf.overDPort == nil || pf.ports != ports {
			t.Fatalf("%s: no over-capacity D-port plane for %d ports (max use %d)", bench, ports, pf.maxDPort)
		}
		over, err := pv.OverFullDPorts(ports)
		if err != nil || !slices.Equal(over, pf.overDPort) {
			t.Errorf("%s: the view-only plane differs from the recorded one (err %v)", bench, err)
		}
		assertViewMatchesDecode(t, full)
	}
}

// recordBoth runs bench for n instructions on cfg, after a short warm-up,
// recording it with a Recorder and a view-only Recorder at once, each
// told the machine's D-ports as a capture's is.
func recordBoth(t *testing.T, cfg config.Config, bench string, n uint64, extra []string) (full, view *Trace) {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cfg, trace.NewLimitSource(gen, n))
	if err != nil {
		t.Fatal(err)
	}
	c.Warm(trace.NewLimitSource(gen, 5_000), ^uint64(0))
	a, err := NewRecorder(bench, cfg.BackEndLatchStages(), extra...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewViewRecorder(bench, cfg.BackEndLatchStages(), extra...)
	if err != nil {
		t.Fatal(err)
	}
	a.SetDPorts(cfg.DL1.Ports)
	b.SetDPorts(cfg.DL1.Ports)
	c.SetObserver(tee{a, b})
	c.SetIssueListener(tee{a, b})
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if full, err = a.Trace(); err != nil {
		t.Fatal(err)
	}
	if view, err = b.Trace(); err != nil {
		t.Fatal(err)
	}
	return full, view
}

// TestViewOnlyTraceRefusesBytes: every operation that needs a trace's
// encoded stream fails on a view-only trace with an error naming the
// trace and wrapping ErrNoBytes, and writes nothing; an over-capacity
// plane that would re-read the stream fails by name, while one the
// recorded maxima rule out is served.
func TestViewOnlyTraceRefusesBytes(t *testing.T) {
	rec, err := NewViewRecorder("crafted", 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 70; c++ {
		u := cpu.Usage{Cycle: uint64(c), DPortUsed: c % 3, BackLatch: []int{c % 2, 0}}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoBytes) || !strings.Contains(err.Error(), `"crafted"`) {
			t.Errorf("%s on a view-only trace: err = %v, want one naming the trace and wrapping ErrNoBytes", what, err)
		}
	}
	_, err = tr.Reader()
	check("Reader", err)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	check("WriteTo", err)
	check("EncodeGzip", tr.EncodeGzip(&buf))
	if n != 0 || buf.Len() != 0 {
		t.Errorf("refusals wrote %d bytes (WriteTo reported %d)", buf.Len(), n)
	}

	p, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if plane, err := p.OverFullDPorts(2); plane != nil || err != nil {
		t.Errorf("OverFullDPorts(2) = %v, %v: the maxima rule every cycle out", plane, err)
	}
	if _, err := p.OverFullDPorts(1); !errors.Is(err, ErrNoBytes) ||
		!strings.Contains(err.Error(), "D-port") {
		t.Errorf("OverFullDPorts(1) on a view-only trace: err = %v, want one naming the D-port plane", err)
	}
}
