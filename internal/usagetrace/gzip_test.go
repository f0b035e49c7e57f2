package usagetrace

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// TestInflateStopsAtTheLimit: inflate keeps streams up to its limit, from
// one member or several, and fails on one byte more, allocating no more
// than the limit however the trailer reads.
func TestInflateStopsAtTheLimit(t *testing.T) {
	const limit = 1 << 20
	data := bytes.Repeat([]byte("usagetrace"), limit/10+1)[:limit]
	half := append(gzipped(t, data[:limit/2]), gzipped(t, data[limit/2:])...)
	for _, tc := range []struct {
		name string
		in   []byte
	}{{"one member", gzipped(t, data)}, {"two members", half}} {
		out, err := inflate(tc.in, limit)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("%s at the limit: %d bytes, err %v; want the %d input bytes", tc.name, len(out), err, limit)
		}
	}

	over := append(bytes.Clone(data), 'x')
	lying := gzipped(t, over)
	binary.LittleEndian.PutUint32(lying[len(lying)-4:], 1) // a trailer claiming one byte
	for _, tc := range []struct {
		name    string
		in      []byte
		wantErr string
	}{
		{"one member", gzipped(t, over), "inflates past 1048576 bytes"},
		{"two members", append(gzipped(t, over[:limit/2]), gzipped(t, over[limit/2:])...), "inflates past 1048576 bytes"},
		{"lying trailer", lying, "corrupt gzip stream"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := inflate(tc.in, limit)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s one byte past the limit: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit+256<<10 {
			t.Errorf("%s: inflate allocated %d bytes, limit %d", tc.name, got, limit)
		}
	}
}

// TestGzipBombFailsAtTheCap: a stored trace that inflates just past
// maxInflatedTrace (here a 1 MiB member of zeros repeated) fails in
// ReadTrace without holding what it inflated.
func TestGzipBombFailsAtTheCap(t *testing.T) {
	member := gzipped(t, make([]byte, 1<<20))
	bomb := bytes.Repeat(member, maxInflatedTrace>>20+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "gzip stream inflates past") {
		t.Fatalf("%d-byte bomb: err = %v, want the cap error", len(bomb), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("%d-byte bomb inflating to %d bytes: ReadTrace allocated %d bytes",
			len(bomb), (maxInflatedTrace>>20+1)<<20, got)
	}
}
