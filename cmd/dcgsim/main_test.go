package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dcg/internal/core"
	"dcg/internal/trace"
	"dcg/internal/workload"
)

// TestCoRequestedFamilyMatchesSingleSchemeRuns: -scheme with both members
// of plb-ext's timing family (and a timing-neutral scheme between them)
// gives each scheme the Result a run of that scheme alone gives, which
// is every number dcgsim prints for it.
func TestCoRequestedFamilyMatchesSingleSchemeRuns(t *testing.T) {
	sim := core.NewSimulator(core.DefaultMachine())
	sim.Warmup = 5_000
	const bench, n = "gcc", 20_000
	kinds := []core.SchemeKind{core.SchemeDCGPLB, core.SchemeNone, core.SchemePLBExt}
	together, err := runSchemes(context.Background(), sim, bench, kinds, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		alone, err := runSchemes(context.Background(), sim, bench, []core.SchemeKind{k}, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(together[i], alone[0]) {
			t.Errorf("%v requested with %v differs from %v alone:\n got %+v\nwant %+v", k, kinds, k, together[i], alone[0])
		}
	}
}

// TestRecordRoundTripsEveryBenchmark: -record writes each of the 16
// benchmarks' streams as a file whose every record the replay reader
// accepts and hands back as the generator produced it, but for the
// carried value, which the format leaves out.
func TestRecordRoundTripsEveryBenchmark(t *testing.T) {
	const n = 20_000
	dir := t.TempDir()
	for _, bench := range core.Benchmarks() {
		path := filepath.Join(dir, bench+".trace")
		if err := recordTrace(path, bench, n); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := workload.ByName(bench)
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for d, ok := src.Next(); ok; d, ok = src.Next() {
			want, _ := gen.Next()
			want.Value = 0 // the file format does not carry it
			if d != want {
				t.Fatalf("%s record %d: read %+v, generated %+v", bench, count, d, want)
			}
			count++
		}
		f.Close()
		if src.Err() != nil || count != n {
			t.Fatalf("%s: read %d of %d records, err %v", bench, count, n, src.Err())
		}
	}
}

// TestReplayRefusesCraftedRecords: a recorded gcc file with one record's
// register bytes set outside both register files, or its opcode byte set
// past the defined opcodes, fails -replay with an error naming the
// record instead of panicking the core or running as no-ops.
func TestReplayRefusesCraftedRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gcc.trace")
	if err := recordTrace(path, "gcc", 2_000); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header is the magic, the version, the name's length and the
	// name; a record is 45 bytes, its opcode at offset 40 and its three
	// register bytes after it.
	const recordSize, opAt = 45, 40
	head := 4 + 1 + 1 + len("gcc")
	for _, tc := range []struct {
		name   string
		record int
		bytes  []byte // written from the opcode byte on
	}{
		{"registers 250-252", 1_000, nil},
		{"opcode 250", 0, []byte{250}},
	} {
		data := append([]byte(nil), good...)
		at := head + tc.record*recordSize + opAt
		if tc.bytes == nil {
			copy(data[at+1:], []byte{250, 251, 252})
		} else {
			copy(data[at:], tc.bytes)
		}
		crafted := filepath.Join(dir, "crafted.trace")
		if err := os.WriteFile(crafted, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sim := core.NewSimulator(core.DefaultMachine())
		err := replayTrace(sim, crafted, core.SchemeDCG, false)
		if err == nil || !strings.Contains(err.Error(), "record "+strconv.Itoa(tc.record)) {
			t.Errorf("%s at record %d: replay err = %v, want one naming the record", tc.name, tc.record, err)
		}
	}
}
