// Command dcgrepro regenerates every table and figure of the paper's
// evaluation and prints them in the paper's row/series layout, each with
// the paper's reported numbers attached for comparison.
//
// Usage:
//
//	dcgrepro                 # full reproduction, default instruction budget
//	dcgrepro -n 500000       # more instructions per benchmark
//	dcgrepro -fig 10         # a single figure
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dcg/internal/experiments"
)

func main() {
	var (
		n     = flag.Uint64("n", 300_000, "measured instructions per benchmark")
		fig   = flag.String("fig", "all", "which experiment: all, table1, 4.4, 10..17, families, util, perf, ablations, seeds")
		seeds = flag.Int("seeds", 3, "seed variants for -fig seeds")
		csvD  = flag.String("csv", "", "also write each comparison as CSV into this directory")
		bars  = flag.Bool("bars", false, "also render each comparison as an ASCII bar chart")
	)
	flag.Parse()

	csvDir = *csvD
	showBars = *bars
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dcgrepro:", err)
			os.Exit(1)
		}
	}

	r := experiments.NewRunner(experiments.Options{Insts: *n})

	type job struct {
		id  string
		run func() error
	}
	show := func(tbl interface{ String() string }, note string) {
		fmt.Println(tbl.String())
		if note != "" {
			fmt.Println("  " + note)
		}
		fmt.Println()
	}
	jobs := []job{
		{"table1", func() error {
			show(experiments.Table1(), "")
			return nil
		}},
		{"4.4", func() error {
			s, err := r.Sec44ALUSweep()
			if err != nil {
				return err
			}
			show(s.Table(), s.PaperNote)
			return nil
		}},
		{"util", func() error {
			u, err := r.Utilization()
			if err != nil {
				return err
			}
			show(u.Table(), u.PaperNote)
			return nil
		}},
		{"10", comparison(r.Fig10, show)},
		{"11", comparison(r.Fig11, show)},
		{"perf", comparison(r.PerfLoss, show)},
		{"12", comparison(r.Fig12, show)},
		{"13", comparison(r.Fig13, show)},
		{"14", comparison(r.Fig14, show)},
		{"15", comparison(r.Fig15, show)},
		{"16", comparison(r.Fig16, show)},
		{"17", comparison(r.Fig17, show)},
		{"families", comparison(r.GatingFamilies, show)},
		{"seeds", func() error {
			rep, err := r.SeedSensitivity(*seeds)
			if err != nil {
				return err
			}
			show(rep.Table(), rep.Note)
			return nil
		}},
		{"ablations", func() error {
			for _, run := range []func() (*experiments.Ablation, error){
				r.DCGContribution, r.SelectionPolicy, r.StorePolicy,
				r.PLBWindow, r.Leakage, r.IssueWidth, r.BranchOracle, r.Headroom,
				r.PredictionVsGranularity,
			} {
				a, err := run()
				if err != nil {
					return err
				}
				show(a.Table(), a.Note)
			}
			return nil
		}},
	}

	ran := false
	for _, j := range jobs {
		if *fig != "all" && *fig != j.id {
			continue
		}
		ran = true
		if err := j.run(); err != nil {
			fmt.Fprintln(os.Stderr, "dcgrepro:", err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dcgrepro: unknown experiment %q\n", *fig)
		os.Exit(2)
	}
}

func comparison(f func() (*experiments.Comparison, error),
	show func(interface{ String() string }, string)) func() error {
	return func() error {
		c, err := f()
		if err != nil {
			return err
		}
		show(c.Table(), c.PaperNote)
		if showBars {
			fmt.Println(c.Bars())
		}
		if dir := csvDir; dir != "" {
			name := strings.ToLower(strings.ReplaceAll(c.ID, " ", "_")) + ".csv"
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			defer f.Close()
			if err := c.WriteCSV(f); err != nil {
				return err
			}
		}
		return nil
	}
}

// csvDir and showBars are set from flags before the jobs run.
var (
	csvDir   string
	showBars bool
)
