package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dcg/internal/isa"
)

// Binary trace file format: a fixed header (magic, version, workload name)
// followed by fixed-width little-endian records, one per dynamic
// instruction. Traces let expensive workloads be captured once and
// replayed deterministically (and make streams portable across machines).
// Version 2 added the carried value, which the value-dependent gating
// schemes read; version 1 records lack it, so the reader refuses them
// rather than replay every value as zero.
const (
	traceMagic   = "DCGT"
	traceVersion = 2

	// record layout: PC(8) Seq(8) Target(8) EA(8) Imm(8)
	//                Op(1) Dst(1) Src1(1) Src2(1) Flags(1) Value(8)
	recordSize = 8*6 + 5

	flagTaken = 1 << 0
)

// Writer serialises a dynamic instruction stream to a trace file.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes the trace header for the named workload.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("trace: workload name too long")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (t *Writer) Write(d DynInst) error {
	var buf [recordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], d.PC)
	binary.LittleEndian.PutUint64(buf[8:], d.Seq)
	binary.LittleEndian.PutUint64(buf[16:], d.Target)
	binary.LittleEndian.PutUint64(buf[24:], d.EA)
	binary.LittleEndian.PutUint64(buf[32:], uint64(d.Inst.Imm))
	buf[40] = byte(d.Inst.Op)
	buf[41] = byte(d.Inst.Dst)
	buf[42] = byte(d.Inst.Src1)
	buf[43] = byte(d.Inst.Src2)
	if d.Taken {
		buf[44] |= flagTaken
	}
	binary.LittleEndian.PutUint64(buf[45:], d.Value)
	if _, err := t.w.Write(buf[:]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush flushes buffered records to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record drains up to max instructions from src into the writer and
// returns the number captured.
func Record(w io.Writer, src Source, max uint64) (uint64, error) {
	tw, err := NewWriter(w, src.Name())
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < max; i++ {
		d, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(d); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

// FileSource replays a trace file; it implements Source. A record whose
// instruction fails isa.Inst.Validate (an undefined opcode, an operand
// pattern the opcode does not take, a register outside both files) ends
// the stream, and Err names the record.
type FileSource struct {
	r    *bufio.Reader
	name string
	n    uint64 // records read
	err  error
}

// NewReader parses the trace header and returns a replaying Source.
func NewReader(r io.Reader) (*FileSource, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(traceMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(traceMagic)])
	}
	switch v := head[len(traceMagic)]; {
	case v == 1:
		return nil, fmt.Errorf("trace: version 1 file: its records carry no instruction values, " +
			"which the value-dependent schemes read; record the stream again")
	case v != traceVersion:
		return nil, fmt.Errorf("trace: unsupported version %d (reader speaks %d)", v, traceVersion)
	}
	nameLen := int(head[len(traceMagic)+1])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: short name: %w", err)
	}
	return &FileSource{r: br, name: string(name)}, nil
}

// Name implements Source.
func (f *FileSource) Name() string { return f.name }

// Err returns the first read error other than a clean end of stream, or
// the refusal of an invalid record.
func (f *FileSource) Err() error { return f.err }

// Next implements Source.
func (f *FileSource) Next() (DynInst, bool) {
	if f.err != nil {
		return DynInst{}, false
	}
	var buf [recordSize]byte
	if _, err := io.ReadFull(f.r, buf[:]); err != nil {
		if err != io.EOF {
			f.err = err
		}
		return DynInst{}, false
	}
	var d DynInst
	d.PC = binary.LittleEndian.Uint64(buf[0:])
	d.Seq = binary.LittleEndian.Uint64(buf[8:])
	d.Target = binary.LittleEndian.Uint64(buf[16:])
	d.EA = binary.LittleEndian.Uint64(buf[24:])
	d.Inst.Imm = int64(binary.LittleEndian.Uint64(buf[32:]))
	d.Inst.Op = opcodeFromByte(buf[40])
	d.Inst.Dst = regFromByte(buf[41])
	d.Inst.Src1 = regFromByte(buf[42])
	d.Inst.Src2 = regFromByte(buf[43])
	d.Taken = buf[44]&flagTaken != 0
	d.Value = binary.LittleEndian.Uint64(buf[45:])
	if err := d.Inst.Validate(); err != nil {
		f.err = fmt.Errorf("trace: %s record %d: %w", f.name, f.n, err)
		return DynInst{}, false
	}
	f.n++
	return d, true
}

// opcodeFromByte and regFromByte convert raw record bytes back to the
// typed ISA values; Next validates the instruction they make.
func opcodeFromByte(b byte) isa.Opcode { return isa.Opcode(b) }

func regFromByte(b byte) isa.Reg { return isa.Reg(b) }
