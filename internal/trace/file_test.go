package trace

import (
	"bytes"
	"strings"
	"testing"

	"dcg/internal/isa"
)

func sampleStream(n int) []DynInst {
	out := make([]DynInst, 0, n)
	for i := 0; i < n; i++ {
		d := DynInst{
			PC:    0x40_0000 + uint64(i*4),
			Seq:   uint64(i),
			Value: uint64(i) * 0x9e37_79b9_7f4a_7c15,
			Inst: isa.Inst{
				Op: isa.OpAddI, Dst: isa.IntReg(1 + i%20),
				Src1: isa.IntReg(2), Src2: isa.NoReg, Imm: int64(i),
			},
		}
		switch i % 5 {
		case 1:
			d.Inst = isa.Inst{Op: isa.OpLd, Dst: isa.IntReg(3), Src1: isa.IntReg(4), Src2: isa.NoReg, Imm: 8}
			d.EA = 0x1000_0000 + uint64(i)*8
		case 2:
			d.Inst = isa.Inst{Op: isa.OpBne, Dst: isa.NoReg, Src1: isa.IntReg(1), Src2: isa.IntReg(2)}
			d.Taken = i%2 == 0
			d.Target = 0x40_0100
		}
		out = append(out, d)
	}
	return out
}

func TestTraceRoundTrip(t *testing.T) {
	insts := sampleStream(1000)
	var buf bytes.Buffer
	n, err := Record(&buf, NewSliceSource("roundtrip", insts), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("recorded %d", n)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Name() != "roundtrip" {
		t.Errorf("name = %q", rd.Name())
	}
	for i, want := range insts {
		got, ok := rd.Next()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if got != want {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, ok := rd.Next(); ok {
		t.Fatal("stream did not end")
	}
	if rd.Err() != nil {
		t.Fatalf("reader error: %v", rd.Err())
	}
}

func TestTraceRecordRespectsLimit(t *testing.T) {
	var buf bytes.Buffer
	n, err := Record(&buf, NewSliceSource("x", sampleStream(100)), 40)
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("recorded %d, want 40", n)
	}
}

func TestTraceRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE\x01\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("DCGT\x09\x00"))); err == nil {
		t.Error("bad version accepted")
	}
	// A version-1 file's records have no value field: refused, naming
	// the version and the missing values, rather than read with zeros.
	if _, err := NewReader(bytes.NewReader([]byte("DCGT\x01\x01x"))); err == nil ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "no instruction values") {
		t.Errorf("version-1 file: err = %v, want a refusal naming the version and the missing values", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("DC"))); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTraceTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, NewSliceSource("x", sampleStream(3)), 3); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-5] // chop mid-record
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := rd.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d complete records, want 2", n)
	}
	if rd.Err() == nil {
		t.Error("truncation not reported")
	}
}
