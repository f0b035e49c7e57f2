package workload_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"dcg/internal/core"
	"dcg/internal/workload"
)

// fuzzInsts is how many instructions of an accepted profile warm the
// core and how many it then measures, so one execution stays a short
// run.
const fuzzInsts = 512

// fuzzAllocLimit bounds what building a generator and running it may
// allocate, whatever the profile. gzip's profile at MaxBlocks blocks
// allocates about 4 MiB, the core's caches and tables included.
const fuzzAllocLimit = 256 << 20

// FuzzLoadProfile drives the reader of the workload profiles
// `dcgsim -profile` takes: arbitrary bytes into LoadProfile, and every
// profile it accepts into NewGenerator and a short DCG run on the Table 1
// machine, as -profile runs it. Whatever the input, nothing may panic,
// an accepted profile must build a generator and simulate, and the two
// together may allocate at most fuzzAllocLimit bytes.
//
// Run it with: go test -run '^$' -fuzz FuzzLoadProfile ./internal/workload
func FuzzLoadProfile(f *testing.F) {
	for _, name := range []string{"gzip", "mcf", "swim", "lucas"} {
		p, _ := workload.ByName(name)
		var buf bytes.Buffer
		if err := workload.SaveProfile(&buf, p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Profiles Validate must refuse: each would panic or allocate without
	// bound in NewGenerator or the run.
	base, _ := workload.ByName("gzip")
	for _, mutate := range []func(p *workload.Profile){
		func(p *workload.Profile) { p.Mem.Stride = 0 },
		func(p *workload.Profile) { p.Mem.WarmBytes = 4 },
		func(p *workload.Profile) { p.Mix.IntMult, p.Mix.IntDiv = 1e6, p.Mix.IntDiv-1e6 },
		func(p *workload.Profile) { p.Blocks = 1 << 30 },
	} {
		p := base
		mutate(&p)
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := workload.LoadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gen, err := workload.NewGenerator(p)
		if err != nil {
			t.Fatalf("LoadProfile accepted a profile NewGenerator refuses: %v", err)
		}
		sim := core.NewSimulator(core.DefaultMachine())
		sim.Warmup = fuzzInsts
		if _, err := sim.RunStream(gen, core.SchemeDCG, fuzzInsts); err != nil {
			t.Fatalf("an accepted profile failed to simulate: %v", err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > fuzzAllocLimit {
			t.Fatalf("building and running an accepted profile allocated %d bytes, limit %d", n, fuzzAllocLimit)
		}
	})
}
