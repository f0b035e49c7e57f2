package trace_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"dcg/internal/core"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

// fuzzRecords bounds how many records of a fuzzed file drive the core,
// so one execution stays a short run.
const fuzzRecords = 256

// FuzzFileSource drives the reader of the instruction-trace files
// `dcgsim -replay` takes: arbitrary bytes into NewReader, and every
// record it hands back, up to fuzzRecords, through a DCG run on the
// Table 1 machine, as -replay runs them. Whatever the input, nothing may
// panic, the run must succeed on the records accepted, and a stream
// that stops early must say why: a truncated record, or a refused one
// named by its index.
//
// Run it with: go test -run '^$' -fuzz FuzzFileSource ./internal/trace
func FuzzFileSource(f *testing.F) {
	prof, _ := workload.ByName("gcc")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, gen, 64); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	const head, recordSize, opAt = 4 + 1 + 1 + len("gcc"), 53, 40
	f.Add(good)
	f.Add(good[:len(good)-7])        // a truncated last record
	f.Add(good[:head])               // a header alone
	f.Add([]byte("DCGT\x02\xffgcc")) // a name longer than the file
	crafted := func(at int, b ...byte) []byte {
		data := bytes.Clone(good)
		copy(data[head+10*recordSize+at:], b)
		return data
	}
	f.Add(crafted(opAt+1, 250, 251, 252)) // registers outside both files
	f.Add(crafted(opAt, 250))             // an undefined opcode
	f.Add(crafted(opAt+1, 0xff))          // a missing destination

	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		sim := core.NewSimulator(core.DefaultMachine())
		res, err := sim.RunSource(trace.NewLimitSource(src, fuzzRecords), core.SchemeDCG)
		if err != nil {
			t.Fatalf("a run over the accepted records failed: %v", err)
		}
		if res.Committed > fuzzRecords {
			t.Fatalf("committed %d instructions from at most %d records", res.Committed, fuzzRecords)
		}
		if err := src.Err(); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) &&
			!strings.Contains(err.Error(), "record ") {
			t.Fatalf("the stream stopped with an error naming no record: %v", err)
		}
	})
}
