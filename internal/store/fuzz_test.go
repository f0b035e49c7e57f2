package store

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dcg/internal/core"
	"dcg/internal/simrun"
)

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact envelope and,
// since a CRC stops only accidental corruption and not a crafted upload,
// straight to both payload decoders. None may panic; a frame that decodes
// must re-frame to the same bytes, and a timing that decodes must carry a
// trace that agrees with its meta.
func FuzzDecodeArtifact(f *testing.F) {
	frames := seedArtifacts(f)
	for _, frame := range frames {
		f.Add(frame)
	}
	// A result payload cut off mid-JSON, a gzip bomb framed as a timing
	// and bare, and a timing payload whose trace is a stream of
	// maximum-count repeat records.
	f.Add(encodeFrame(kindResult, truncatedResult(f, frames)))
	bomb := gzipBomb(f, maxResultJSON+1)
	f.Add(encodeFrame(kindTiming, bomb))
	f.Add(bomb)
	f.Add(maxRepeatsTiming(f, frames))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []byte{kindResult, kindTiming} {
			payload, err := decodeFrame(data, kind)
			if err != nil {
				continue
			}
			if again := encodeFrame(kind, payload); !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-frames to %d different bytes (was %d)", len(again), len(data))
			}
			checkPayload(t, kind, payload)
		}
		checkPayload(t, kindResult, data)
		checkPayload(t, kindTiming, data)
	})
}

// checkPayload decodes a payload of the given kind; a timing it accepts
// must hold a trace of its meta's cycle count and latch stage count.
func checkPayload(t *testing.T, kind byte, payload []byte) {
	if kind == kindResult {
		decodeResultPayload(payload) // must not panic; any error is fine
		return
	}
	tm, err := decodeTimingPayload(payload)
	if err != nil {
		return
	}
	if tm.Trace.Cycles() != tm.CPUStats.Cycles {
		t.Fatalf("accepted timing: trace has %d cycles, meta %d", tm.Trace.Cycles(), tm.CPUStats.Cycles)
	}
	if got, want := tm.Trace.BackLatchStages(), tm.Machine.BackEndLatchStages(); got != want {
		t.Fatalf("accepted timing: trace has %d latch stages, machine %d", got, want)
	}
}

// seedArtifacts persists one result and one (small) timing artifact through
// a store and returns their on-disk frames.
func seedArtifacts(f *testing.F) [][]byte {
	dir := f.TempDir()
	s, err := Open(dir, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	s.PutResult(ctx, simrun.Key{Bench: "art", Scheme: core.SchemeDCG, Insts: 42}, &core.Result{Benchmark: "art", Cycles: 7})
	k := simrun.Key{Bench: "gzip", Scheme: core.SchemeNone, Insts: 300, Warmup: 100}
	_, tm, err := simrun.Capture(ctx, k)
	if err != nil {
		f.Fatal(err)
	}
	s.PutTiming(ctx, k.TimingKey(), tm)

	var frames [][]byte
	err = filepath.Walk(filepath.Join(dir, "objects"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		frame, err := os.ReadFile(path)
		frames = append(frames, frame)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(frames) != 2 {
		f.Fatalf("store holds %d artifacts, want 2", len(frames))
	}
	return frames
}

// gzipBomb returns n zero bytes gzip-compressed.
func gzipBomb(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(make([]byte, n)); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// truncatedResult returns the first half of the seeded result artifact's
// payload.
func truncatedResult(tb testing.TB, frames [][]byte) []byte {
	tb.Helper()
	for _, frame := range frames {
		if payload, err := decodeFrame(frame, kindResult); err == nil {
			return payload[:len(payload)/2]
		}
	}
	tb.Fatal("no result artifact among the seeds")
	return nil
}

// maxRepeatsTiming returns a timing payload carrying the meta of the
// seeded timing artifact and a raw trace whose one cycle record is
// followed by repeat records of the largest count.
func maxRepeatsTiming(tb testing.TB, frames [][]byte) []byte {
	tb.Helper()
	for _, frame := range frames {
		payload, err := decodeFrame(frame, kindTiming)
		if err != nil {
			continue
		}
		metaLen, n := binary.Uvarint(payload)
		out := append([]byte{}, payload[:n+int(metaLen)]...)
		out = append(out, "DCGU\x03\x01x\x01\x05usage\x05"...) // header, five latch stages
		out = append(out, 0x01, 0x00)                          // cycle 0: no events
		out = append(out, make([]byte, 17)...)                 // usage, occupancy, stages
		for i := 0; i < 64; i++ {
			out = append(out, 0x02)
			out = binary.AppendUvarint(out, math.MaxUint64-1)
		}
		return append(out, 0x00, 0x01)
	}
	tb.Fatal("no timing artifact among the seeds")
	return nil
}
