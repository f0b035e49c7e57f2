package store

import (
	"bytes"
	"context"
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
	for _, frame := range seedArtifacts(f) {
		f.Add(frame)
	}
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
