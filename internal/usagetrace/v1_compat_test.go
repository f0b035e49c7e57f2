package usagetrace

// v1 and v2 backward compatibility: trace artifacts written before the
// channelized v2 format (header "DCGU" | 1 | nameLen | name | uvarint
// stages, usage-only records) and before the run-length v3 format (no
// repeat records) must keep decoding bit-identically. These tests
// re-encode a fresh capture in each older format and assert the decodes
// agree cycle for cycle and plane for plane.

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
)

// rewrite re-encodes a v3 stream in the given older version: each repeat
// record becomes the cycle records of the cycles it stands for, and the
// header takes that version's layout. It fails the test when asked for v1
// of a stream with extra channels — those have no v1 encoding.
func rewrite(t testing.TB, v3 []byte, version byte) []byte {
	t.Helper()
	if v3[len(traceMagic)] != traceVersion {
		t.Fatalf("input version %d, want %d", v3[len(traceMagic)], traceVersion)
	}
	rd, err := NewReader(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(traceMagic), version, byte(len(rd.name)))
	out = append(out, rd.name...)
	if version == traceVersion1 {
		if len(rd.channels) != 1 {
			t.Fatalf("input is not usage-only (channels %v)", rd.channels)
		}
		out = binary.AppendUvarint(out, uint64(rd.stages))
	} else {
		out = binary.AppendUvarint(out, uint64(len(rd.channels)))
		for _, ch := range rd.channels {
			out = append(out, byte(len(ch)))
			out = append(out, ch...)
			out = binary.AppendUvarint(out, uint64(rd.stages))
		}
	}
	// The Writer's own record encoder, fed cycle by cycle.
	w := &Writer{stages: rd.stages, hasLatchValue: rd.hasLatchValue}
	for {
		events, u, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		w.pending = append(w.pending[:0], events...)
		if !w.encode(u) {
			t.Fatal(w.err)
		}
		out = append(out, w.scratch...)
		w.prev.WindowOccupancy = u.WindowOccupancy
	}
	out = append(out, tagEnd)
	return binary.AppendUvarint(out, rd.cycle)
}

// rewriteV1 re-encodes a usage-only v3 stream as v1.
func rewriteV1(t testing.TB, v3 []byte) []byte { return rewrite(t, v3, traceVersion1) }

// TestV1StreamDecodesBitIdentically re-encodes a usage-only capture whose
// v3 stream holds repeat records as v1: it must decode to the same
// cycles, events and usage vectors, and to the same packed view.
func TestV1StreamDecodesBitIdentically(t *testing.T) {
	tr, _, _ := runCapture(t, 40, 5)
	v1 := checkRewrite(t, tr, traceVersion1)
	if chs := v1.Channels(); len(chs) != 1 || chs[0] != ChannelUsage {
		t.Fatalf("v1 channels %v, want implicit usage-only table", chs)
	}
	if v1.HasChannel(ChannelLatchValue) {
		t.Fatal("v1 trace claims a latchvalue channel")
	}
}

// TestV2StreamDecodesBitIdentically is the same check for v2, with and
// without the latchvalue channel.
func TestV2StreamDecodesBitIdentically(t *testing.T) {
	usageOnly, _, _ := runCapture(t, 40, 5)
	checkRewrite(t, usageOnly, traceVersion2)
	latch, _, _ := runCapture(t, 40, 3, ChannelLatchValue)
	checkRewrite(t, latch, traceVersion2)
}

// checkRewrite re-encodes tr in an older version and fails unless the
// result decodes as tr does; it returns the decoded rewrite.
func checkRewrite(t *testing.T, tr *Trace, version byte) *Trace {
	t.Helper()
	data := rewrite(t, encoded(t, tr), version)
	if data[len(traceMagic)] != version {
		t.Fatalf("rewrite is version %d, want %d", data[len(traceMagic)], version)
	}
	if len(data) <= tr.SizeBytes() {
		t.Fatalf("the %d-byte rewrite expanded no repeats (v3 %d bytes)", len(data), tr.SizeBytes())
	}
	old, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v%d stream failed to decode: %v", version, err)
	}
	sameDecode(t, old, tr)
	return old
}

// sameDecode fails unless two traces decode to the same metadata, the
// same cycles (events and every usage field) and the same packed view,
// each view also agreeing with its own stream.
func sameDecode(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Name() != b.Name() || a.Cycles() != b.Cycles() || a.BackLatchStages() != b.BackLatchStages() ||
		!slices.Equal(a.Channels(), b.Channels()) {
		t.Fatalf("metadata %q/%d/%d/%v, want %q/%d/%d/%v",
			a.Name(), a.Cycles(), a.BackLatchStages(), a.Channels(),
			b.Name(), b.Cycles(), b.BackLatchStages(), b.Channels())
	}
	ra, err := a.Reader()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Reader()
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(0); ; c++ {
		eva, ua, erra := ra.Next()
		evb, ub, errb := rb.Next()
		if (erra == io.EOF) != (errb == io.EOF) {
			t.Fatalf("cycle %d: errors %v and %v", c, erra, errb)
		}
		if erra == io.EOF {
			break
		}
		if erra != nil || errb != nil {
			t.Fatalf("cycle %d: errors %v and %v", c, erra, errb)
		}
		if !slices.Equal(eva, evb) {
			t.Fatalf("cycle %d: events %+v, want %+v", c, eva, evb)
		}
		if !sameUsage(ua, ub) {
			t.Fatalf("cycle %d usage: %+v, want %+v", c, *ua, *ub)
		}
	}

	pa, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Decode()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstStream(t, a, pa)
	checkAgainstStream(t, b, pb)
	planes := func(p *Packed) [][]uint64 {
		pl := [][]uint64{p.DPortUsePlane(), p.IssueNonEmptyPlane(), p.CommitNonEmptyPlane(),
			p.UnitSchedViolationPlane(), p.DPortSchedViolationPlane(), p.BusSchedViolationPlane()}
		for ft := range pb.fuBusy {
			pl = append(pl, p.fuBusy[ft])
		}
		for s := 0; s < p.BackLatchStages(); s++ {
			pl = append(pl, p.LatchNonZeroPlane(s), p.LatchValueChangePlane(s))
		}
		return pl
	}
	wa, wb := planes(pa), planes(pb)
	for i := range wa {
		if !bytes.Equal(wordsToBytes(wa[i]), wordsToBytes(wb[i])) {
			t.Fatalf("plane %d differs between the decodes", i)
		}
	}
	if pa.schedUnitOn != pb.schedUnitOn || pa.dportSchedOn != pb.dportSchedOn ||
		pa.busSchedHist != pb.busSchedHist || pa.backLatchSum != pb.backLatchSum ||
		pa.backLatchNewValSum != pb.backLatchNewValSum || pa.fetchSum != pb.fetchSum ||
		pa.leadViol != pb.leadViol || pa.fetchTail != pb.fetchTail || !slices.Equal(pa.occ, pb.occ) ||
		pa.busyOr != pb.busyOr || pa.maxDPort != pb.maxDPort || pa.maxBus != pb.maxBus ||
		pa.maxLatch != pb.maxLatch {
		t.Fatal("packed aggregates differ between the decodes")
	}
}

func wordsToBytes(w []uint64) []byte {
	out := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}
