package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// printResult writes one workload's human-readable report.
func printResult(w io.Writer, res *runResult, traced bool) {
	fmt.Fprintf(w, "\n== %s (closed loop, one op at a time, %d ops over %.1fs) ==\n", res.Workload, res.Attempted, res.WindowS)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, d := range reported {
		fmt.Fprintf(w, "  %-34s %12.4f %s (reported, not gated)\n", d.name, res.Reported[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %d of %d ops failed; the reference check re-derived %d ops with the direct-run engine\n",
		res.Failed, res.Attempted, res.RefChecked)
	fmt.Fprintf(w, "  %-34s %12.0f cycles\n", "sim.cycles_total", res.Sim["sim.cycles_total"])
	for _, a := range []struct {
		name  string
		paper float64
	}{{"sim.dcg_saving_int_pct", paperDCGIntPct}, {"sim.dcg_saving_fp_pct", paperDCGFPPct}} {
		if v, ok := res.Sim[a.name]; ok {
			fmt.Fprintf(w, "  %-34s %12.4f %% (paper: %.1f %%)\n", a.name, v, a.paper)
		}
	}
	if _, ok := res.Sim["sim.dcg_saving_int_pct"]; ok {
		fmt.Fprintln(w, "  (the power model is validated only against the paper's suite means; there is no hardware reference)")
	}
	if !traced {
		return
	}
	fmt.Fprintln(w, "  -- time per op by layer (traced run) --")
	layers := make([]string, 0, len(res.LayerMs))
	total := 0.0
	for l, t := range res.LayerMs {
		layers = append(layers, l)
		total += t
	}
	sort.Slice(layers, func(i, j int) bool { return res.LayerMs[layers[i]] > res.LayerMs[layers[j]] })
	for _, l := range layers {
		label := l
		if l == "bench" {
			label = "other (bench)"
		}
		fmt.Fprintf(w, "  %-34s %12.4f ms\n", label, res.LayerMs[l])
	}
	fmt.Fprintf(w, "  %-34s %12.4f ms\n", "sum", total)
	fmt.Fprintln(w, "  -- per-layer metrics --")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.name, res.Layers[d.name].Value, d.unit)
	}
}

// env is the report's record of where and how the benchmark ran.
type env struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	GitRevision string  `json:"git_revision"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	StoreFS     string  `json:"store_fs"`
	WallS       float64 `json:"wall_s"`
}

func environment(seed int64, seconds, wall float64) env {
	e := env{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", GitRevision: "unknown",
		Seed: seed, Seconds: seconds, StoreFS: fsType(scratchDir), WallS: wall,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitRevision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.GitRevision += "+dirty"
		}
	}
	return e
}

func (e env) summary() string {
	return fmt.Sprintf("go %s, GOMAXPROCS %d, nproc %d, cpu %q, revision %s, seed %d, store on %s, wall %.1fs",
		e.GoVersion, e.GOMAXPROCS, e.NProc, e.CPUModel, e.GitRevision, e.Seed, e.StoreFS, e.WallS)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func writeReport(path string, e env, results []*runResult) error {
	data, err := json.MarshalIndent(struct {
		Environment env          `json:"environment"`
		Workloads   []*runResult `json:"workloads"`
	}{e, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
