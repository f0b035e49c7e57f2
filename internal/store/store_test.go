package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/simrun"
	"dcg/internal/store"
	"dcg/internal/usagetrace"
)

func open(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	s, err := store.Open(dir, maxBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// artifacts lists the object files currently resident under dir.
func artifacts(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestResultRoundTrip persists a real simulation result and reloads it
// through a fresh Store handle (a "restarted process"): every field the
// paper's figures consume — including the unexported all-on power vector
// behind the per-structure saving methods — must survive.
func TestResultRoundTrip(t *testing.T) {
	k := simrun.Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 5000, Warmup: 1000}
	orig, err := simrun.Run(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	open(t, dir, 0).PutResult(context.Background(), k, orig)

	s2 := open(t, dir, 0) // fresh handle = restarted process
	got, ok := s2.GetResult(context.Background(), k)
	if !ok {
		t.Fatal("persisted result not found by a fresh store handle")
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round-tripped result differs:\ngot  %+v\nwant %+v", got, orig)
	}
	// The saving methods depend on the unexported fullPerCycle vector.
	for c := power.Component(0); c < power.NumComponents; c++ {
		if g, w := got.ComponentSaving(c), orig.ComponentSaving(c); g != w {
			t.Fatalf("ComponentSaving(%v) = %v after round trip, want %v", c, g, w)
		}
	}
	if got.LatchSaving() != orig.LatchSaving() || got.DCacheSaving() != orig.DCacheSaving() {
		t.Error("latch/dcache savings changed across the store round trip")
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after hit = %+v, want 1 hit / 0 misses", st)
	}
	if _, ok := s2.GetResult(context.Background(), simrun.Key{Bench: "absent", Scheme: core.SchemeDCG, Insts: 5000}); ok {
		t.Fatal("store invented a result for a key never stored")
	}
}

// TestTimingRoundTrip persists a captured timing artifact and proves a
// replay from the reloaded trace is bit-identical to a replay from the
// original.
func TestTimingRoundTrip(t *testing.T) {
	k := simrun.Key{Bench: "mcf", Scheme: core.SchemeNone, Insts: 5000, Warmup: 1000}
	_, tm, err := simrun.Capture(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	open(t, dir, 0).PutTiming(context.Background(), k.TimingKey(), tm)
	got, ok := open(t, dir, 0).GetTiming(context.Background(), k.TimingKey())
	if !ok {
		t.Fatal("persisted timing not found by a fresh store handle")
	}
	if got.Benchmark != tm.Benchmark || got.CPUStats != tm.CPUStats ||
		got.Machine != tm.Machine || got.Util != tm.Util || got.Stall != tm.Stall {
		t.Fatal("timing metadata changed across the store round trip")
	}

	kd := k
	kd.Scheme = core.SchemeDCG
	fromOrig, err := simrun.Evaluate(kd, tm)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := simrun.Evaluate(kd, got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStore, fromOrig) {
		t.Fatal("replay from the reloaded trace differs from the original trace")
	}
}

// TestCorruptionDetectedAndRecomputed damages a persisted artifact. The
// next read must detect the damage, evict the file, count it, and report
// a miss — never serve the damaged artifact — and an Exec above the store
// must transparently recompute and rewrite a valid one. The damage is a
// flipped payload byte (caught by the CRC) or a timing artifact with
// valid framing and CRC whose meta disagrees with its trace, which no
// replay could ever use.
func TestCorruptionDetectedAndRecomputed(t *testing.T) {
	ctx := context.Background()
	// exec builds an Exec over s whose captures are real; runs counts
	// them.
	exec := func(s *store.Store, runs *atomic.Int32) *simrun.Exec {
		e := simrun.NewExec(0, 0)
		e.Store = s
		capture := e.Capture
		e.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			runs.Add(1)
			return capture(ctx, k)
		}
		return e
	}
	// mismatchedTiming persists a real capture of k with its meta edited
	// after the capture, under a valid frame.
	mismatchedTiming := func(edit func(*core.Timing)) func(*testing.T, string, simrun.Key) {
		return func(t *testing.T, dir string, k simrun.Key) {
			_, tm, err := simrun.Capture(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			edit(tm)
			open(t, dir, 0).PutTiming(ctx, k.TimingKey(), tm)
		}
	}
	timingKey := simrun.Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 5000, Warmup: 1000}

	cases := []struct {
		name   string
		k      simrun.Key
		damage func(t *testing.T, dir string, k simrun.Key)
	}{
		{
			name: "flipped payload byte",
			k:    simrun.Key{Bench: "gzip", Scheme: core.SchemePLBOrig, Insts: 100},
			damage: func(t *testing.T, dir string, k simrun.Key) {
				var runs atomic.Int32
				if _, out, err := exec(open(t, dir, 0), &runs).Do(ctx, k); err != nil || out != simrun.OutcomeMiss {
					t.Fatalf("seed run: outcome=%v err=%v", out, err)
				}
				if runs.Load() != 1 {
					t.Fatalf("seed ran %d captures, want 1", runs.Load())
				}
				files := artifacts(t, dir)
				if len(files) != 1 {
					t.Fatalf("seed left %d artifacts, want 1", len(files))
				}
				// Flip a byte inside the payload (past the 14-byte frame header).
				raw, err := os.ReadFile(files[0])
				if err != nil {
					t.Fatal(err)
				}
				raw[14+len(raw[14:])/2] ^= 0xff
				if err := os.WriteFile(files[0], raw, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:   "timing meta cycles disagree with trace",
			k:      timingKey,
			damage: mismatchedTiming(func(tm *core.Timing) { tm.CPUStats.Cycles++ }),
		},
		{
			name:   "trace latch stages disagree with machine",
			k:      timingKey,
			damage: mismatchedTiming(func(tm *core.Timing) { tm.Machine.Pipeline.ExtraBackEnd++ }),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.damage(t, dir, tc.k)
			if n := len(artifacts(t, dir)); n != 1 {
				t.Fatalf("damage left %d artifacts, want 1", n)
			}

			var runs atomic.Int32
			s2 := open(t, dir, 0)
			res, out, err := exec(s2, &runs).Do(ctx, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if out != simrun.OutcomeMiss {
				t.Fatalf("corrupt artifact served with outcome %v, want a recompute (miss)", out)
			}
			if runs.Load() != 1 {
				t.Fatalf("corruption did not force a recompute: %d runs, want 1", runs.Load())
			}
			if st := s2.Stats(); st.Corruptions != 1 {
				t.Errorf("corruptions = %d, want 1", st.Corruptions)
			}
			// The recompute rewrote valid artifacts over the evicted one.
			if got, ok := s2.GetResult(ctx, tc.k); !ok || got.Cycles != res.Cycles {
				t.Fatalf("result artifact not rewritten after corruption: ok=%v res=%+v", ok, got)
			}
			if core.TimingNeutral(tc.k.Scheme) {
				tm, ok := s2.GetTiming(ctx, tc.k.TimingKey())
				if !ok || tm.Trace.Cycles() != tm.CPUStats.Cycles {
					t.Fatalf("timing artifact not rewritten after corruption: ok=%v", ok)
				}
			}
			if st := s2.Stats(); st.Corruptions != 1 {
				t.Errorf("rewritten artifacts read as corrupt: corruptions = %d, want 1", st.Corruptions)
			}
		})
	}
}

// TestFrameValidation corrupts each envelope field in turn; every
// mutation must read as a miss, never decode.
func TestFrameValidation(t *testing.T) {
	dir := t.TempDir()
	k := simrun.Key{Bench: "art", Scheme: core.SchemeDCG, Insts: 42}
	seed := func() []byte {
		s := open(t, dir, 0)
		s.PutResult(context.Background(), k, &core.Result{Benchmark: "art", Cycles: 7})
		raw, err := os.ReadFile(artifacts(t, dir)[0])
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	orig := seed()
	path := artifacts(t, dir)[0]

	mutations := map[string]func([]byte){
		"magic":      func(b []byte) { b[0] = 'X' },
		"version":    func(b []byte) { b[4] = 99 },
		"kind":       func(b []byte) { b[5] ^= 0xff },
		"length":     func(b []byte) { b[6]++ },
		"crc":        func(b []byte) { b[len(b)-1] ^= 0x01 },
		"truncation": nil, // handled below
	}
	for name, mutate := range mutations {
		bad := append([]byte(nil), orig...)
		if mutate != nil {
			mutate(bad)
		} else {
			bad = bad[:len(bad)-5]
		}
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir, 0)
		if _, ok := s.GetResult(context.Background(), k); ok {
			t.Errorf("%s-corrupted artifact decoded as a hit", name)
		}
		if st := s.Stats(); st.Corruptions != 1 {
			t.Errorf("%s: corruptions = %d, want 1", name, st.Corruptions)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s-corrupted artifact not evicted", name)
		}
		seed() // restore for the next mutation
	}
}

// TestEvictionBySizeCap fills a capped store past its bound and checks the
// least-recently-accessed artifacts are the ones dropped.
func TestEvictionBySizeCap(t *testing.T) {
	dir := t.TempDir()
	// Size one artifact first so the cap can be set to "about three".
	probe := open(t, dir, 0)
	mk := func(i int) simrun.Key {
		return simrun.Key{Bench: "b", Scheme: core.SchemeDCG, Insts: uint64(i + 1)}
	}
	probe.PutResult(context.Background(), mk(0), &core.Result{Benchmark: "b", Cycles: 1})
	one := probe.Stats().SizeBytes
	if one <= 0 {
		t.Fatal("probe artifact has no size")
	}

	s := open(t, dir, 3*one+one/2)
	for i := 1; i < 8; i++ {
		s.PutResult(context.Background(), mk(i), &core.Result{Benchmark: "b", Cycles: uint64(i)})
		time.Sleep(5 * time.Millisecond) // distinct mtimes order the LRU
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with 8 artifacts and a ~3-artifact cap: %+v", st)
	}
	if st.SizeBytes > s.Stats().MaxBytes {
		t.Errorf("resident %d bytes exceeds cap %d after eviction", st.SizeBytes, st.MaxBytes)
	}
	// The newest artifact must have survived; the oldest must be gone.
	if _, ok := s.GetResult(context.Background(), mk(7)); !ok {
		t.Error("most recently written artifact was evicted")
	}
	if _, ok := s.GetResult(context.Background(), mk(0)); ok {
		t.Error("least recently used artifact survived eviction")
	}
	// The eviction pass released its cross-process lock.
	if _, err := os.Stat(filepath.Join(dir, "lock")); !os.IsNotExist(err) {
		t.Error("eviction lock file left behind")
	}
}

// TestEvictionSkippedWhenLockHeld: a live lock held by another process
// makes this process skip its eviction pass rather than fight over files;
// a stale lock is broken.
func TestEvictionSkippedWhenLockHeld(t *testing.T) {
	dir := t.TempDir()
	probe := open(t, dir, 0)
	k0 := simrun.Key{Bench: "x", Scheme: core.SchemeDCG, Insts: 1}
	probe.PutResult(context.Background(), k0, &core.Result{Cycles: 1})
	one := probe.Stats().SizeBytes

	lock := filepath.Join(dir, "lock")
	if err := os.WriteFile(lock, []byte("other\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, one) // cap of one artifact: the next put overflows
	s.PutResult(context.Background(), simrun.Key{Bench: "x", Scheme: core.SchemeDCG, Insts: 2}, &core.Result{Cycles: 2})
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted %d artifacts while another process held the lock", st.Evictions)
	}

	// Age the lock past the stale threshold: the pass takes it over.
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	s.PutResult(context.Background(), simrun.Key{Bench: "x", Scheme: core.SchemeDCG, Insts: 3}, &core.Result{Cycles: 3})
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("stale lock was never broken; eviction starved")
	}
}

// TestExecStoreWarmRestart is the tentpole property at the simrun layer: a
// second executor sharing only the store directory serves both result and
// timing artifacts without running any simulation.
func TestExecStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	var captures, evals atomic.Int32
	newExec := func() *simrun.Exec {
		e := simrun.NewExec(0, 0)
		e.Store = open(t, dir, 0)
		e.Capture = func(ctx context.Context, k simrun.Key) (*core.Result, *core.Timing, error) {
			captures.Add(1)
			return simrun.Capture(ctx, k)
		}
		e.Evaluate = func(k simrun.Key, tm *core.Timing) (*core.Result, error) {
			evals.Add(1)
			return simrun.Evaluate(k, tm)
		}
		return e
	}

	base := simrun.Key{Bench: "gzip", Insts: 5000, Warmup: 1000}
	want := map[core.SchemeKind]*core.Result{}
	e1 := newExec()
	for _, sch := range []core.SchemeKind{core.SchemeNone, core.SchemeDCG} {
		k := base
		k.Scheme = sch
		res, _, err := e1.Do(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want[sch] = res
	}
	if captures.Load() != 1 {
		t.Fatalf("first process ran %d captures, want 1", captures.Load())
	}

	// "Restart": fresh executor, fresh in-memory caches, same directory.
	captures.Store(0)
	evals.Store(0)
	e2 := newExec()
	for _, sch := range []core.SchemeKind{core.SchemeNone, core.SchemeDCG} {
		k := base
		k.Scheme = sch
		res, out, err := e2.Do(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if out != simrun.OutcomeStore {
			t.Errorf("%v after restart: outcome %v, want store", sch, out)
		}
		if !reflect.DeepEqual(res, want[sch]) {
			t.Errorf("%v: restart-served result differs from the original", sch)
		}
	}
	if n := captures.Load() + evals.Load(); n != 0 {
		t.Fatalf("restart re-executed %d simulation stages (captures=%d evals=%d), want 0",
			n, captures.Load(), evals.Load())
	}

	// A scheme never requested before the restart still avoids the core:
	// its timing artifact is in the store, so it replays.
	kOracle := base
	kOracle.Scheme = core.SchemeOracle
	_, out, err := e2.Do(context.Background(), kOracle)
	if err != nil {
		t.Fatal(err)
	}
	if out != simrun.OutcomeReplayed {
		t.Errorf("new scheme after restart: outcome %v, want replayed", out)
	}
	if captures.Load() != 0 {
		t.Error("new scheme after restart re-captured timing despite a stored trace")
	}
	if evals.Load() != 1 {
		t.Errorf("new scheme after restart ran %d evaluations, want 1", evals.Load())
	}
}

// rewriteTrace re-encodes a usage-only trace in v1 ("DCGU" | 1 | nameLen
// | name | uvarint stages, no channel table) or v2 (the v3 header with its
// version byte): the encodings timing artifacts persisted before the
// channelized and the run-length formats carry. Neither has repeat
// records, so every cycle, including each a repeat record stands for,
// becomes a cycle record, encoded here from the decoded stream.
func rewriteTrace(t *testing.T, tr *usagetrace.Trace, version byte) *usagetrace.Trace {
	t.Helper()
	if chs := tr.Channels(); len(chs) != 1 {
		t.Fatalf("capture is not usage-only (channels %v)", chs)
	}
	out := append([]byte("DCGU"), version, byte(len(tr.Name())))
	out = append(out, tr.Name()...)
	if version == 2 {
		out = binary.AppendUvarint(out, 1)
		out = append(out, byte(len(usagetrace.ChannelUsage)))
		out = append(out, usagetrace.ChannelUsage...)
	}
	out = binary.AppendUvarint(out, uint64(tr.BackLatchStages()))
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	var occ int64
	for {
		events, u, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, 0x01)
		out = binary.AppendUvarint(out, uint64(len(events)))
		for _, ev := range events {
			out = appendEvent(out, &ev)
		}
		for _, v := range []uint64{uint64(u.IssueCount), uint64(u.FPIssueCount), uint64(u.MemIssueCount),
			uint64(u.IntALUBusy), uint64(u.IntMultBusy), uint64(u.FPALUBusy), uint64(u.FPMultBusy),
			uint64(u.DPortUsed), uint64(u.ResultBus), uint64(u.CommitCount), uint64(u.FetchCount)} {
			out = binary.AppendUvarint(out, v)
		}
		out = binary.AppendVarint(out, int64(u.WindowOccupancy)-occ)
		occ = int64(u.WindowOccupancy)
		for _, v := range u.BackLatch {
			out = binary.AppendUvarint(out, uint64(v))
		}
	}
	out = append(out, 0x00)
	out = binary.AppendUvarint(out, tr.Cycles())
	back, err := usagetrace.ReadTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("v%d-rewritten stream failed to decode: %v", version, err)
	}
	if back.SizeBytes() <= tr.SizeBytes() {
		t.Fatalf("the %d-byte v%d rewrite expanded no repeats (v3 %d bytes)", back.SizeBytes(), version, tr.SizeBytes())
	}
	return back
}

// appendEvent encodes one issue event as a cycle record carries it.
func appendEvent(b []byte, ev *cpu.IssueEvent) []byte {
	var flags byte
	if ev.FUIdx >= 0 {
		flags |= 1 | byte(ev.FUType)<<4
	}
	if ev.IsLoad {
		flags |= 2
	}
	if ev.IsStore {
		flags |= 4
	}
	if ev.WritesReg {
		flags |= 8
	}
	b = append(b, flags)
	if ev.FUIdx >= 0 {
		b = binary.AppendUvarint(b, uint64(ev.FUIdx))
		b = binary.AppendUvarint(b, ev.FUStart-ev.Cycle)
		b = binary.AppendUvarint(b, uint64(ev.FULat))
	}
	if ev.IsLoad || ev.IsStore {
		b = binary.AppendUvarint(b, ev.DPortCycle-ev.Cycle)
	}
	if ev.WritesReg {
		b = binary.AppendUvarint(b, ev.ResultBusCycle-ev.Cycle)
	}
	return b
}

// storeOldVersion persists k's capture with its trace re-encoded in an
// older version, reopens the store, and checks that the artifact found at
// k's timing key replays dcg to the capture's own packed and scalar
// Results. It returns the store directory and the reloaded timing.
func storeOldVersion(t *testing.T, k simrun.Key, tm *core.Timing, version byte) (string, *core.Timing) {
	t.Helper()
	old := *tm
	old.Trace = rewriteTrace(t, tm.Trace, version)

	dir := t.TempDir()
	open(t, dir, 0).PutTiming(context.Background(), k.TimingKey(), &old)

	// "Restart": the artifact written under the pre-bump address is found,
	// because usage-only timing keys never grew a channel suffix.
	got, ok := open(t, dir, 0).GetTiming(context.Background(), k.TimingKey())
	if !ok {
		t.Fatalf("v%d timing artifact not found after restart", version)
	}
	kd := k
	kd.Scheme = core.SchemeDCG
	packed, err := simrun.Evaluate(kd, got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simrun.Evaluate(kd, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(packed, want) {
		t.Fatalf("packed replay from the v%d artifact differs from the v3 capture", version)
	}
	scalar := func(tm *core.Timing) *core.Result {
		sim := core.NewSimulator(tm.Machine)
		sim.Warmup = k.Warmup
		res, err := sim.EvaluateScalar(tm, []gating.Scheme{gating.NewDCG(tm.Machine)})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if !reflect.DeepEqual(scalar(got), scalar(tm)) {
		t.Fatalf("scalar replay from the v%d artifact differs from the v3 capture", version)
	}
	return dir, got
}

// TestV1TimingArtifactAfterChannelBump is the persistent-store half of
// the v2 compatibility story: a timing artifact whose trace was encoded
// in the pre-channel v1 format (simulated by re-encoding a fresh capture)
// still round-trips through the store at its original address —
// usage-only schemes keep replaying from it bit-identically, on the packed
// and the scalar engine — while a value-dependent scheme neither hits that
// artifact (its TimingKey carries the channel set) nor silently accepts
// the channel-less trace.
func TestV1TimingArtifactAfterChannelBump(t *testing.T) {
	k := simrun.Key{Bench: "gzip", Scheme: core.SchemeNone, Insts: 5000, Warmup: 1000}
	_, tm, err := simrun.Capture(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	dir, got := storeOldVersion(t, k, tm, 1)

	// A value-dependent scheme addresses a different timing artifact...
	kv := k
	kv.Scheme = core.SchemeDDCG
	if kv.TimingKey() == k.TimingKey() {
		t.Fatal("ddcg shares the usage-only TimingKey; v1 artifacts could serve it")
	}
	if _, ok := open(t, dir, 0).GetTiming(context.Background(), kv.TimingKey()); ok {
		t.Fatal("store served a usage-only artifact for a latchvalue-requiring key")
	}
	// ...and even a direct evaluation against the channel-less trace is
	// refused loudly rather than degrading to occupancy gating.
	if _, err := simrun.Evaluate(kv, got); err == nil ||
		!strings.Contains(err.Error(), "latchvalue") {
		t.Fatalf("ddcg on a v1 trace: err = %v, want missing-channel error", err)
	}
}

// TestV2TimingArtifactAfterRunLengthBump: a timing artifact stored before
// the run-length format, its trace a v2 stream without repeat records,
// round-trips through the store and replays bit-identically on both
// engines.
func TestV2TimingArtifactAfterRunLengthBump(t *testing.T) {
	k := simrun.Key{Bench: "mcf", Scheme: core.SchemeNone, Insts: 5000, Warmup: 1000}
	_, tm, err := simrun.Capture(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	storeOldVersion(t, k, tm, 2)
}
