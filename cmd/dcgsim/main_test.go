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

// TestCoRequestedFamilyMatchesSingleSchemeRuns: -scheme with both
// schemes of plb-ext's throttle (and a timing-neutral scheme between
// them), evaluated on one capture per throttle, gives each scheme the
// Result a live run of that scheme alone gives, which is every number
// dcgsim prints for it.
func TestCoRequestedFamilyMatchesSingleSchemeRuns(t *testing.T) {
	sim := core.NewSimulator(core.DefaultMachine())
	sim.Warmup = 5_000
	const bench, n = "gcc", 20_000
	kinds := []core.SchemeKind{core.SchemePLBExt, core.SchemeDCGPLB, core.SchemeNone}
	together, err := runSchemes(context.Background(), sim, bench, kinds, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		live, err := sim.RunBenchmarkContext(context.Background(), bench, k, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(together[i], live) {
			t.Errorf("%v requested with %v differs from its live run:\n got %+v\nwant %+v", k, kinds, together[i], live)
		}
	}
}

// TestRecordRoundTripsEveryBenchmark: -record writes each of the 16
// benchmarks' streams as a file whose every record the replay reader
// accepts and hands back as the generator produced it, carried value
// included.
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

// TestRecordedStreamReplaysValueDependentGating: gcc's first 20,000
// instructions, recorded with -record and run with -replay, give ddcg the
// Result a direct run of the same stream gives: the file carries every
// instruction's value, which ddcg's latch gating compares.
func TestRecordedStreamReplaysValueDependentGating(t *testing.T) {
	const bench, n = "gcc", 20_000
	path := filepath.Join(t.TempDir(), bench+".trace")
	if err := recordTrace(path, bench, n); err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(core.DefaultMachine())
	replayed, err := runTraceFile(sim, path, core.SchemeDDCG)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName(bench)
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunSource(trace.NewLimitSource(gen, n), core.SchemeDDCG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, direct) {
		t.Errorf("ddcg on the replayed file saves %.4f, on the direct stream %.4f:\n got %+v\nwant %+v",
			replayed.Saving, direct.Saving, replayed, direct)
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
	// name; a record is 53 bytes, its opcode at offset 40 and its three
	// register bytes after it.
	const recordSize, opAt = 53, 40
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
