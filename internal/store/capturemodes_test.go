package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"dcg/internal/core"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/usagetrace"
)

// neutralSchemes lists every registered timing-neutral scheme.
func neutralSchemes() []core.SchemeKind {
	var kinds []core.SchemeKind
	for _, k := range core.AllSchemes() {
		if core.TimingNeutral(k) {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// capturingExec is NewExec with its Capture seam recording every Timing
// the production capture returns.
func capturingExec(st simrun.PersistentTier) (*simrun.Exec, func() []*core.Timing) {
	e := simrun.NewExec(0, 0)
	e.Store = st
	var mu sync.Mutex
	var captured []*core.Timing
	e.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
		r, tm, err := simrun.Capture(ctx, k)
		if err == nil {
			mu.Lock()
			captured = append(captured, tm)
			mu.Unlock()
		}
		return r, tm, err
	}
	return e, func() []*core.Timing {
		mu.Lock()
		defer mu.Unlock()
		return append([]*core.Timing(nil), captured...)
	}
}

// TestCaptureModesServeIdenticalResults runs every registered
// timing-neutral scheme on the 16 benchmarks, on the Table 1 and deep
// machines (the usage-only schemes' captures and the latchvalue ones'),
// through an Exec with no store, whose captures keep no bytes, and one
// with a store, whose captures keep them. Both serve the Result a live
// run gives, field for field. The store-less captures refuse every
// byte operation and both PutTimings, leaving no file behind, while the
// stored artifacts load back into a fresh Exec as the same Results, and
// their timings evaluate to them again.
func TestCaptureModesServeIdenticalResults(t *testing.T) {
	ctx := context.Background()
	kinds := neutralSchemes()
	dir := t.TempDir()
	local := open(t, t.TempDir(), 0)
	origin := open(t, t.TempDir(), 0)
	srv := httptest.NewServer(origin.Handler())
	t.Cleanup(srv.Close)
	remote := store.NewRemote(srv.URL, open(t, t.TempDir(), 0), nil)
	remote.Retry.Sleep = noSleep

	for _, deep := range []bool{false, true} {
		for _, bench := range core.Benchmarks() {
			viewOnly, viewCaptures := capturingExec(nil)
			withStore, storeCaptures := capturingExec(open(t, dir, 0))
			want := map[core.SchemeKind]*core.Result{}
			for _, kind := range kinds {
				k := simrun.Key{Bench: bench, Scheme: kind, Deep: deep, Insts: 8_000, Warmup: 2_000}
				label := fmt.Sprintf("deep=%v/%s/%s", deep, bench, kind)
				a, _, err := viewOnly.Do(ctx, k)
				if err != nil {
					t.Fatalf("%s without a store: %v", label, err)
				}
				b, _, err := withStore.Do(ctx, k)
				if err != nil {
					t.Fatalf("%s with a store: %v", label, err)
				}
				sim := core.NewSimulator(k.Machine())
				sim.Warmup = k.Warmup
				live, err := sim.RunBenchmarkContext(ctx, bench, kind, k.Insts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, live) {
					t.Fatalf("%s: the store-less, stored and live Results differ:\n%+v\n%+v\n%+v", label, a, b, live)
				}
				want[kind] = b
			}

			views, stored := viewCaptures(), storeCaptures()
			if len(views) != 2 || len(stored) != 2 {
				t.Fatalf("deep=%v/%s: %d store-less and %d stored captures, want one usage and one latchvalue each",
					deep, bench, len(views), len(stored))
			}
			for _, tm := range stored {
				if tm.Trace.SizeBytes() == 0 {
					t.Fatalf("deep=%v/%s: a capture with a store attached kept no bytes", deep, bench)
				}
			}
			for _, tm := range views {
				checkRefusals(t, tm, local, remote)
			}

			// A fresh Exec over the same directory: every Result comes
			// from the store, and each stored timing evaluates to it.
			reloaded, recaptures := capturingExec(open(t, dir, 0))
			for _, kind := range kinds {
				k := simrun.Key{Bench: bench, Scheme: kind, Deep: deep, Insts: 8_000, Warmup: 2_000}
				res, out, err := reloaded.Do(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				if out != simrun.OutcomeStore || !reflect.DeepEqual(res, want[kind]) {
					t.Fatalf("deep=%v/%s/%s: reloaded outcome %v, Result equal %v", deep, bench, kind,
						out, reflect.DeepEqual(res, want[kind]))
				}
				tm, ok := open(t, dir, 0).GetTiming(ctx, k.TimingKey())
				if !ok {
					t.Fatalf("deep=%v/%s/%s: no stored timing", deep, bench, kind)
				}
				again, err := simrun.Evaluate(k, tm)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, want[kind]) {
					t.Fatalf("deep=%v/%s/%s: the stored timing evaluates to another Result", deep, bench, kind)
				}
			}
			if n := len(recaptures()); n != 0 {
				t.Fatalf("deep=%v/%s: the reloaded Exec captured %d times", deep, bench, n)
			}
		}
	}
	for name, d := range map[string]string{"local": local.Dir(), "remote cache": remote.Local().Dir(), "origin": origin.Dir()} {
		if files := artifacts(t, d); len(files) != 0 {
			t.Errorf("refused puts left %d files in the %s store: %v", len(files), name, files)
		}
	}
}

// checkRefusals holds a store-less capture to its contract: no bytes,
// Reader, EncodeGzip and WriteTo fail naming the trace, and a PutTiming
// to a local or a remote store is refused and counted as a failed put.
func checkRefusals(t *testing.T, tm *core.Timing, local *store.Store, remote *store.Remote) {
	t.Helper()
	tr := tm.Trace
	if tr.SizeBytes() != 0 {
		t.Fatalf("%s: a store-less capture kept %d bytes", tm.Benchmark, tr.SizeBytes())
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, usagetrace.ErrNoBytes) {
			t.Fatalf("%s of a store-less %s capture: err = %v, want ErrNoBytes", what, tm.Benchmark, err)
		}
	}
	_, err := tr.Reader()
	refused("Reader", err)
	var buf bytes.Buffer
	_, err = tr.WriteTo(&buf)
	refused("WriteTo", err)
	refused("EncodeGzip", tr.EncodeGzip(&buf))

	k := simrun.TimingKey{Bench: tm.Benchmark, Channels: core.ChannelKey(tr.Channels()[1:])}
	before, rbefore := local.Stats(), remote.Stats()
	local.PutTiming(context.Background(), k, tm)
	remote.PutTiming(context.Background(), k, tm)
	after, rafter := local.Stats(), remote.Stats()
	if after.WriteErrors != before.WriteErrors+1 || after.Writes != before.Writes {
		t.Fatalf("%s: local PutTiming of a store-less capture: write errors %d -> %d, writes %d -> %d",
			tm.Benchmark, before.WriteErrors, after.WriteErrors, before.Writes, after.Writes)
	}
	if rafter.Errors != rbefore.Errors+1 || rafter.Writes != rbefore.Writes {
		t.Fatalf("%s: remote PutTiming of a store-less capture: errors %d -> %d, uploads %d -> %d",
			tm.Benchmark, rbefore.Errors, rafter.Errors, rbefore.Writes, rafter.Writes)
	}
}
