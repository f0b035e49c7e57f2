package usagetrace

import (
	"bytes"
	"strings"
	"testing"
)

// TestGzipRoundTrip: EncodeGzip output decodes (via the magic-byte sniff)
// to a trace byte-identical to the original raw encoding.
func TestGzipRoundTrip(t *testing.T) {
	tr, _, _ := synthCapture(t, 400, 5)

	var raw, compressed bytes.Buffer
	if _, err := tr.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeGzip(&compressed); err != nil {
		t.Fatal(err)
	}
	if compressed.Len() >= raw.Len() {
		t.Errorf("gzip encoding did not shrink the trace: %d >= %d raw bytes",
			compressed.Len(), raw.Len())
	}

	got, err := ReadTrace(bytes.NewReader(compressed.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace on gzip stream: %v", err)
	}
	if got.Name() != tr.Name() || got.Cycles() != tr.Cycles() ||
		got.BackLatchStages() != tr.BackLatchStages() {
		t.Fatalf("gzip round trip changed metadata: %q/%d/%d, want %q/%d/%d",
			got.Name(), got.Cycles(), got.BackLatchStages(),
			tr.Name(), tr.Cycles(), tr.BackLatchStages())
	}
	var back bytes.Buffer
	if _, err := got.WriteTo(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), raw.Bytes()) {
		t.Fatal("decoded gzip trace is not byte-identical to the raw encoding")
	}
	// The resident trace holds the inflated encoding, so replays are not
	// charged for decompression and SizeBytes reflects memory residency.
	if got.SizeBytes() != raw.Len() {
		t.Errorf("resident size = %d, want inflated %d", got.SizeBytes(), raw.Len())
	}
}

// TestGzipSniffInNewReader: the streaming decoder also accepts compressed
// input directly.
func TestGzipSniffInNewReader(t *testing.T) {
	tr, _, _ := synthCapture(t, 100, 3)
	var compressed bytes.Buffer
	if err := tr.EncodeGzip(&compressed); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(compressed.Bytes()))
	if err != nil {
		t.Fatalf("NewReader on gzip stream: %v", err)
	}
	cycles, err := ReplayAll(rd)
	if err != nil {
		t.Fatalf("replaying gzip stream: %v", err)
	}
	if cycles != tr.Cycles() {
		t.Fatalf("replayed %d cycles, want %d", cycles, tr.Cycles())
	}
}

// TestGzipTruncation: a gzip stream cut off mid-member must fail loudly,
// never decode as a shorter run.
func TestGzipTruncation(t *testing.T) {
	tr, _, _ := synthCapture(t, 200, 4)
	var compressed bytes.Buffer
	if err := tr.EncodeGzip(&compressed); err != nil {
		t.Fatal(err)
	}
	full := compressed.Bytes()
	for _, cut := range []int{3, len(full) / 2, len(full) - 1} {
		_, err := ReadTrace(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated gzip stream (%d/%d bytes) decoded without error", cut, len(full))
		}
		if !strings.Contains(err.Error(), "usagetrace") {
			t.Errorf("truncation at %d: error %q lacks package context", cut, err)
		}
	}
	// Corrupting the deflate body must also surface (gzip CRC or inflate
	// error), not silently produce wrong cycles.
	bad := append([]byte(nil), full...)
	bad[len(bad)/2] ^= 0xff
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit-flipped gzip stream decoded without error")
	}
}
