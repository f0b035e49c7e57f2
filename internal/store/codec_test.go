package store

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dcg/internal/core"
	"dcg/internal/simrun"
)

// TestResultGzipBombFailsAtTheCap: result payloads are plain JSON, so a
// gzip bomb is refused as malformed JSON without being inflated, and a
// payload one byte past maxResultJSON is refused by the cap before any of
// it is unmarshalled, though it is valid JSON.
func TestResultGzipBombFailsAtTheCap(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"1 MiB bomb", gzipBomb(t, maxResultJSON+1), "result JSON"},
		{"64 MiB bomb", gzipBomb(t, 64*maxResultJSON), "result JSON"},
		{"oversize JSON", oversizeResultJSON(), "exceeds 1048576"},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeResultPayload(tc.payload)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxResultJSON/2 {
			t.Errorf("%s: decode allocated %d bytes", tc.name, got)
		}
	}
}

// oversizeResultJSON returns a Result's JSON one byte longer than
// maxResultJSON.
func oversizeResultJSON() []byte {
	head, tail := `{"Benchmark":"`, `"}`
	name := strings.Repeat("a", maxResultJSON+1-len(head)-len(tail))
	return []byte(head + name + tail)
}

// TestGzipEraResultNotAddressed: a result artifact at the address results
// had while they were stored gzip-compressed is never read, so a store
// written then serves no result and counts no corruption.
func TestGzipEraResultNotAddressed(t *testing.T) {
	ctx := context.Background()
	k := simrun.Key{Bench: "gzip", Scheme: core.SchemeDCG, Insts: 3000, Warmup: 1000}
	var payload bytes.Buffer
	gz := gzip.NewWriter(&payload)
	if err := json.NewEncoder(gz).Encode(&core.Result{Benchmark: "gzip", Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := addr(fmt.Sprintf("result|v%d|bench=%s|scheme=%s|deep=%t|alu=%d|insts=%d|warmup=%d",
		artifactVersion, k.Bench, k.Scheme, k.Deep, k.IntALU, k.Insts, k.Warmup))
	if old == resultAddr(k) {
		t.Fatal("results still address without their format tag")
	}
	if err := s.putFrame(s.path(old, extResult), encodeFrame(kindResult, payload.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetResult(ctx, k); ok {
		t.Error("a gzip-era result artifact was served")
	}
	if st := s.Stats(); st.Corruptions != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss and no corruption", st)
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
// several goroutines with artifacts whose payloads fail to decode: one
// cut off mid-JSON and one over maxResultJSON. Each bad artifact must
// read as a miss and a corruption, and every good Result must still
// round-trip (make race runs this under the race detector).
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
	bad := [][]byte{
		encodeFrame(kindResult, good[:len(good)/2]),
		encodeFrame(kindResult, oversizeResultJSON()),
	}
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
				if err := s.putFrame(s.path(resultAddr(kb), extResult), bad[i%2]); err != nil {
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

// TestAddressesPinned pins the content addresses of unthrottled timing
// keys, usage-only and latchvalue, and of a result key, byte for byte, so
// a store written before capture throttles existed keeps serving; a
// throttled key addresses apart from its unthrottled twin.
func TestAddressesPinned(t *testing.T) {
	k := simrun.Key{Bench: "gcc", Scheme: core.SchemeDCG, Insts: 300_000}
	kv := k
	kv.Scheme = core.SchemeDDCG
	kp := k
	kp.Scheme = core.SchemePLBExt
	for _, tc := range []struct {
		what, got, want string
	}{
		{"usage-only timing", timingAddr(k.TimingKey()), "35c8427b089f48137902c951c29576a350318d267cdb61a4ca36700bf8c4e524"},
		{"latchvalue timing", timingAddr(kv.TimingKey()), "69088022bda4e505cd3ff556f755e1d1a23010733f379e2fe52c7cf381f35202"},
		{"plb-ext result", resultAddr(kp), "4c62540bde3c7388d8436490e18e8ea48ed32bc2ab01aedd53d746c0b9368b7c"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s address %s, want %s", tc.what, tc.got, tc.want)
		}
	}
	throttled := kp.TimingKey()
	twin := throttled
	twin.Throttle = ""
	if twin != k.TimingKey() {
		t.Fatalf("plb-ext's timing key %+v differs from dcg's by more than its throttle", throttled)
	}
	if timingAddr(throttled) == timingAddr(twin) {
		t.Error("a throttled timing key addresses its unthrottled twin's artifact")
	}
}
