package usagetrace

// v1 backward compatibility: trace artifacts written before the
// channelized v2 format (header "DCGU" | 1 | nameLen | name | uvarint
// stages, usage-only records) must keep decoding bit-identically. A
// usage-only v2 stream differs from its v1 encoding only in the header,
// so these tests rewrite a fresh capture's header down to v1 and assert
// the two decodes agree cycle for cycle.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// rewriteV1 converts a usage-only v2 stream into the v1 encoding of the
// same capture. It fails the test if the input carries extra channels —
// those have no v1 encoding.
func rewriteV1(t testing.TB, v2 []byte) []byte {
	t.Helper()
	if v2[len(traceMagic)] != traceVersion {
		t.Fatalf("input version %d, want %d", v2[len(traceMagic)], traceVersion)
	}
	nameLen := int(v2[len(traceMagic)+1])
	off := len(traceMagic) + 2 + nameLen
	nch, n := binary.Uvarint(v2[off:])
	if n <= 0 || nch != 1 {
		t.Fatalf("input is not usage-only (channel count %d)", nch)
	}
	off += n
	chLen := int(v2[off])
	if string(v2[off+1:off+1+chLen]) != ChannelUsage {
		t.Fatalf("first channel %q, want %q", v2[off+1:off+1+chLen], ChannelUsage)
	}
	off += 1 + chLen
	stages, n := binary.Uvarint(v2[off:])
	if n <= 0 {
		t.Fatal("bad stages uvarint")
	}
	off += n

	out := append([]byte{}, v2[:len(traceMagic)]...)
	out = append(out, traceVersion1, byte(nameLen))
	out = append(out, v2[len(traceMagic)+2:len(traceMagic)+2+nameLen]...)
	out = binary.AppendUvarint(out, stages)
	return append(out, v2[off:]...)
}

func TestV1StreamDecodesBitIdentically(t *testing.T) {
	tr, _, _ := synthCapture(t, 300, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v2data := buf.Bytes()
	v1data := rewriteV1(t, v2data)
	if len(v1data) >= len(v2data) {
		t.Fatalf("v1 encoding (%d bytes) not smaller than v2 (%d)", len(v1data), len(v2data))
	}

	v1tr, err := ReadTrace(bytes.NewReader(v1data))
	if err != nil {
		t.Fatalf("v1 stream failed to decode: %v", err)
	}
	if v1tr.Name() != tr.Name() || v1tr.Cycles() != tr.Cycles() || v1tr.BackLatchStages() != tr.BackLatchStages() {
		t.Fatalf("v1 metadata %q/%d/%d, want %q/%d/%d",
			v1tr.Name(), v1tr.Cycles(), v1tr.BackLatchStages(),
			tr.Name(), tr.Cycles(), tr.BackLatchStages())
	}
	if chs := v1tr.Channels(); len(chs) != 1 || chs[0] != ChannelUsage {
		t.Fatalf("v1 channels %v, want implicit usage-only table", chs)
	}
	if v1tr.HasChannel(ChannelLatchValue) {
		t.Fatal("v1 trace claims a latchvalue channel")
	}

	// Cycle-for-cycle equality of the two decodes: events and usage
	// vectors must match exactly, which is what makes every replay (and
	// therefore every scheme evaluation) bit-identical across versions.
	r1, err := v1tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(0); ; c++ {
		ev1, u1, err1 := r1.Next()
		ev2, u2, err2 := r2.Next()
		if (err1 == io.EOF) != (err2 == io.EOF) {
			t.Fatalf("cycle %d: v1 err %v, v2 err %v", c, err1, err2)
		}
		if err1 == io.EOF {
			break
		}
		if err1 != nil || err2 != nil {
			t.Fatalf("cycle %d: v1 err %v, v2 err %v", c, err1, err2)
		}
		if len(ev1) != len(ev2) {
			t.Fatalf("cycle %d: v1 has %d events, v2 %d", c, len(ev1), len(ev2))
		}
		for i := range ev1 {
			if ev1[i] != ev2[i] {
				t.Fatalf("cycle %d event %d: v1 %+v, v2 %+v", c, i, ev1[i], ev2[i])
			}
		}
		if u1.Cycle != u2.Cycle || u1.IssueCount != u2.IssueCount ||
			u1.WindowOccupancy != u2.WindowOccupancy {
			t.Fatalf("cycle %d usage: v1 %+v, v2 %+v", c, *u1, *u2)
		}
		for s := range u2.BackLatch {
			if u1.BackLatch[s] != u2.BackLatch[s] {
				t.Fatalf("cycle %d latch stage %d: v1 %d, v2 %d", c, s, u1.BackLatch[s], u2.BackLatch[s])
			}
		}
	}

	// The packed planes derived from either stream agree word for word.
	p1, err := v1tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if p1.HasLatchValue() || p2.HasLatchValue() {
		t.Fatal("usage-only packed planes claim latchvalue data")
	}
	for s := 0; s < tr.BackLatchStages(); s++ {
		if !bytes.Equal(wordsToBytes(p1.LatchNonZeroPlane(s)), wordsToBytes(p2.LatchNonZeroPlane(s))) {
			t.Fatalf("latch-nonzero plane %d differs between v1 and v2 decode", s)
		}
	}
}

func wordsToBytes(w []uint64) []byte {
	out := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}
