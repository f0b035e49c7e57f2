package store

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dcg/internal/core"
	"dcg/internal/simrun"
)

// TestResultGzipBombFailsAtTheCap: a result payload that inflates past
// maxResultJSON, one byte past it or 64 times it, is refused having
// allocated a few times the cap, not what the bomb inflates to.
func TestResultGzipBombFailsAtTheCap(t *testing.T) {
	for _, n := range []int{maxResultJSON + 1, 64 * maxResultJSON} {
		bomb := gzipBomb(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeResultPayload(bomb)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "inflates past 1048576 bytes") {
			t.Fatalf("%d-byte bomb: err = %v, want the cap error", n, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*maxResultJSON {
			t.Errorf("%d-byte bomb: decode allocated %d bytes, cap %d", n, got, maxResultJSON)
		}
	}
}

// TestTimingArtifactAnyDeflateLevel: a timing artifact whose trace is
// deflated at gzip's default level, as stores written before EncodeGzip's
// level changed hold it, and one written by PutTiming today, both of one
// capture, load through GetTiming to the same trace: equal raw bytes and
// packed views, and DeepEqual Results from every timing-neutral scheme.
func TestTimingArtifactAnyDeflateLevel(t *testing.T) {
	ctx := context.Background()
	k := simrun.Key{Bench: "gcc", Scheme: core.SchemeDDCG, Insts: 5000, Warmup: 1000}
	_, tm, err := simrun.Capture(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	tk := k.TimingKey()

	payload, err := encodeTimingPayload(tm)
	if err != nil {
		t.Fatal(err)
	}
	metaLen, n := binary.Uvarint(payload)
	head := payload[:n+int(metaLen)]
	var raw, level6 bytes.Buffer
	if _, err := tm.Trace.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(&level6)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(payload[len(head):], level6.Bytes()) {
		t.Fatal("EncodeGzip deflates at gzip's default level; this test compares two levels")
	}

	oldDir, newDir := t.TempDir(), t.TempDir()
	old, err := Open(oldDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldPayload := append(append([]byte{}, head...), level6.Bytes()...)
	if err := old.putFrame(old.path(timingAddr(tk), extTiming), encodeFrame(kindTiming, oldPayload)); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(newDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.PutTiming(ctx, tk, tm)

	var kinds []core.SchemeKind
	for _, kind := range core.AllSchemes() {
		if core.TimingNeutral(kind) {
			kinds = append(kinds, kind)
		}
	}
	sim := core.NewSimulator(tm.Machine)
	sim.Warmup = k.Warmup
	want, err := sim.EvaluateTimingAll(tm, kinds)
	if err != nil {
		t.Fatal(err)
	}
	wantView, err := tm.Trace.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{oldDir, newDir} {
		s, err := Open(dir, 0, nil) // a fresh handle: a restarted process
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.GetTiming(ctx, tk)
		if !ok {
			t.Fatalf("%s: timing artifact not served", dir)
		}
		var gotRaw bytes.Buffer
		if _, err := got.Trace.WriteTo(&gotRaw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw.Bytes(), raw.Bytes()) {
			t.Errorf("%s: the loaded trace's raw bytes differ from the capture's", dir)
		}
		view, err := got.Trace.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(view, wantView) {
			t.Errorf("%s: the loaded trace's packed view differs from the capture's", dir)
		}
		res, err := sim.EvaluateTimingAll(got, kinds)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("%s: Results from the loaded trace differ from the capture's", dir)
		}
	}
}

// TestPooledResultCodecRoundTrips interleaves result puts and gets from
// several goroutines with artifacts whose payloads fail through the same
// pooled inflaters: one cut off mid-inflate and one that inflates past
// maxResultJSON. Each bad artifact must read as a miss and a corruption,
// and every good Result must still round-trip (make race runs this under
// the race detector).
func TestPooledResultCodecRoundTrips(t *testing.T) {
	ctx := context.Background()
	proto, _, err := simrun.Capture(ctx, simrun.Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 3000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeResultPayload(proto)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{good[:len(good)/2], gzipBomb(t, maxResultJSON+1)}
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := uint64(w*rounds + i)
				k := simrun.Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 3000 + id}
				want := *proto
				want.Cycles += id
				want.Benchmark = fmt.Sprintf("gzip-%d", id)
				s.PutResult(ctx, k, &want)

				kb := k
				kb.Scheme = core.SchemeNone
				if err := s.putFrame(s.path(resultAddr(kb), extResult), encodeFrame(kindResult, bad[i%2])); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.GetResult(ctx, kb); ok {
					t.Errorf("worker %d round %d: a result served from a bad payload", w, i)
				}
				got, ok := s.GetResult(ctx, k)
				if !ok || !reflect.DeepEqual(got, &want) {
					t.Errorf("worker %d round %d: result did not round-trip (served %v)", w, i, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Corruptions != workers*rounds || st.Hits != workers*rounds {
		t.Errorf("stats = %+v, want %d corruptions and %d hits", st, workers*rounds, workers*rounds)
	}
}
