package main

import (
	"bufio"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: dcg
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDCGRun         	       3	  41204705 ns/op	        20.81 save%
BenchmarkReplayEvaluate 	       3	  11037250 ns/op	        20.81 save%
PASS
ok  	dcg	0.533s
pkg: dcg/internal/simrun
BenchmarkCacheDo-4      	 1000000	      1042 ns/op	     120 B/op	       3 allocs/op
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header mis-parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	run := rep.Benchmarks[0]
	if run.Name != "DCGRun" || run.Pkg != "dcg" || run.Iterations != 3 {
		t.Errorf("first benchmark mis-parsed: %+v", run)
	}
	if run.Metrics["ns/op"] != 41204705 || run.Metrics["save%"] != 20.81 {
		t.Errorf("metrics mis-parsed: %v", run.Metrics)
	}
	cache := rep.Benchmarks[2]
	if cache.Name != "CacheDo-4" || cache.Pkg != "dcg/internal/simrun" {
		t.Errorf("per-package attribution wrong: %+v", cache)
	}
	if cache.Metrics["allocs/op"] != 3 {
		t.Errorf("benchmem metrics mis-parsed: %v", cache.Metrics)
	}
}

func TestParseSkipsUncountedLines(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken\nBenchmarkOK 5 10 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "OK" {
		t.Fatalf("parsed %+v", rep.Benchmarks)
	}
}

// TestParseFoldsCountRepeats: go test -count N prints N result lines per
// benchmark. They fold into one entry of medians, so -compare tests one
// value per benchmark instead of every new sample against the last old
// one.
func TestParseFoldsCountRepeats(t *testing.T) {
	fold := func(in string) *Report {
		t.Helper()
		rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := fold(`pkg: dcg
BenchmarkFoo 10 100 ns/op 5 allocs/op
BenchmarkBar 10 7 ns/op
BenchmarkFoo 10 300 ns/op 5 allocs/op
BenchmarkFoo 12 110 ns/op 6 allocs/op
BenchmarkBar 20 9 ns/op
`)
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d entries, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	foo, bar := rep.Benchmarks[0], rep.Benchmarks[1]
	if foo.Name != "Foo" || foo.Samples != 3 || foo.Iterations != 10 ||
		foo.Metrics["ns/op"] != 110 || foo.Metrics["allocs/op"] != 5 {
		t.Errorf("Foo folded to %+v, want 3 samples of medians 10 iterations, 110 ns/op, 5 allocs/op", foo)
	}
	if bar.Name != "Bar" || bar.Samples != 2 || bar.Iterations != 15 || bar.Metrics["ns/op"] != 8 {
		t.Errorf("Bar folded to %+v, want 2 samples of medians 15 iterations, 8 ns/op", bar)
	}

	old := fold("pkg: dcg\nBenchmarkFoo 10 100 ns/op\nBenchmarkFoo 10 90 ns/op\n")
	res := compareReports(old, rep, "ns/op", 0.15, regexp.MustCompile("Foo"))
	if len(res.Deltas) != 1 || res.Deltas[0].Old != 95 || res.Deltas[0].New != 110 {
		t.Fatalf("deltas = %+v, want one: 95 -> 110", res.Deltas)
	}
}
