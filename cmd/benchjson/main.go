// Command benchjson converts `go test -bench` text output into JSON, so
// benchmark numbers can be committed, diffed, and consumed by tooling.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson > BENCH.json
//	make bench-json
//	benchjson -compare [-threshold 0.10] [-metric ns/op] [-only REGEXP] old.json new.json
//
// Each benchmark line ("BenchmarkName  N  v1 unit1  v2 unit2 ...")
// becomes one entry with its iteration count and a unit → value metric
// map; the goos/goarch/cpu/pkg header lines are carried through once.
// The lines `go test -count N` repeats for one benchmark fold into one
// entry holding each value's median and the sample count.
//
// With -compare, two previously converted reports are diffed instead:
// benchmarks are matched by package + name, and the process exits
// non-zero when any matched benchmark's metric grew by more than the
// threshold (CI regression gating). -only narrows the gate to benchmarks
// whose pkg/Name key matches a regexp, so a tightly-thresholded pass can
// watch a specific family (e.g. -only 'dcg/Replay' -threshold 0.15)
// alongside the loose whole-suite gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix, with
	// any -N GOMAXPROCS suffix retained (it distinguishes parallel runs).
	Name string `json:"name"`

	// Pkg is the package the benchmark came from (the most recent "pkg:"
	// header line).
	Pkg string `json:"pkg,omitempty"`

	// Iterations is b.N for the reported measurement.
	Iterations int64 `json:"iterations"`

	// Metrics maps unit → value for every "value unit" pair on the line
	// (ns/op, B/op, allocs/op, and any b.ReportMetric custom units).
	Metrics map[string]float64 `json:"metrics"`

	// Samples is how many result lines (go test -count) the entry folds;
	// Iterations and each metric are then the median over them.
	Samples int `json:"samples,omitempty"`
}

// Report is the full converted output.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		compare   = flag.Bool("compare", false, "diff two converted reports: benchjson -compare old.json new.json")
		threshold = flag.Float64("threshold", 0.10, "relative regression threshold for -compare (0.10 = 10%)")
		metric    = flag.String("metric", "ns/op", "metric to compare with -compare")
		only      = flag.String("only", "", "with -compare, restrict to benchmarks whose pkg/Name key matches this regexp")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files (old new)")
			os.Exit(2)
		}
		var onlyRe *regexp.Regexp
		if *only != "" {
			re, err := regexp.Compile(*only)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: -only:", err)
				os.Exit(2)
			}
			onlyRe = re
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *metric, *threshold, onlyRe))
	}

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output line by line, folding repeated
// results of one benchmark into one entry.
func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line, pkg)
			if err != nil {
				return nil, err
			}
			if b != nil {
				rep.Benchmarks = append(rep.Benchmarks, *b)
			}
		}
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	return rep, sc.Err()
}

// fold merges the results of each pkg/Name key into one entry, in the
// order the keys first appear: the iteration count and every metric
// become the median over the results, and Samples counts them.
func fold(results []Benchmark) []Benchmark {
	type values struct {
		iters   []float64
		metrics map[string][]float64
	}
	var out []Benchmark
	var vals []values
	index := make(map[string]int)
	for _, b := range results {
		i, ok := index[benchKey(b)]
		if !ok {
			i = len(out)
			index[benchKey(b)] = i
			out = append(out, Benchmark{Name: b.Name, Pkg: b.Pkg, Metrics: make(map[string]float64)})
			vals = append(vals, values{metrics: make(map[string][]float64)})
		}
		out[i].Samples++
		vals[i].iters = append(vals[i].iters, float64(b.Iterations))
		for unit, v := range b.Metrics {
			vals[i].metrics[unit] = append(vals[i].metrics[unit], v)
		}
	}
	for i, v := range vals {
		out[i].Iterations = int64(median(v.iters))
		for unit, vs := range v.metrics {
			out[i].Metrics[unit] = median(vs)
		}
	}
	return out
}

// median returns the middle of vs, or the mean of the middle two.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	return (vs[(n-1)/2] + vs[n/2]) / 2
}

// parseBenchLine parses one "BenchmarkX  N  v1 u1  v2 u2 ..." line.
// Lines without an iteration count (e.g. a bare "BenchmarkX" printed
// before a failure) are skipped rather than treated as errors.
func parseBenchLine(line, pkg string) (*Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return nil, nil
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return nil, nil // "BenchmarkX ... FAIL" and similar
	}
	b := &Benchmark{
		Name:       strings.TrimPrefix(f[0], "Benchmark"),
		Pkg:        pkg,
		Iterations: n,
		Metrics:    make(map[string]float64),
	}
	// The remainder is value/unit pairs.
	rest := f[2:]
	if len(rest)%2 != 0 {
		return nil, fmt.Errorf("odd value/unit list in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q in %q", rest[i], line)
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}
