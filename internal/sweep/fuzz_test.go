package sweep

import (
	"encoding/json"
	"sort"
	"testing"
)

// FuzzParseSpec drives the sweep-spec trust boundary: arbitrary bytes into
// Parse, the path a spec file, a POST /v1/sweeps body and a cluster job
// take. Parse must never panic, and every item of a spec it accepts must
// name a machine the core can build (config.Validate), so no accepted spec
// can crash a sweep worker.
//
// Run it with: go test -run '^$' -fuzz FuzzParseSpec ./internal/sweep
func FuzzParseSpec(f *testing.F) {
	bad := invalidSpecs()
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := json.Marshal(bad[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":10,"surprise":1}`))
	f.Add([]byte(`{"name":"x","benchmarks":["gzip"],"schemes":["dcg"],"max_insts":10,"machines":[{"int_alu":33}]}`))
	f.Add([]byte(`{"name":"multi","benchmarks":["gzip","mcf"],"schemes":["none","dcg","plb-ext"],` +
		`"machines":[{},{"deep":true},{"int_alu":4},{"deep":true,"int_alu":32}],"max_insts":5000,"warmup":100,` +
		`"exclude":[{"scheme":"plb-ext","deep":true},{"bench":"mcf","int_alu":4}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		items, err := spec.Items()
		if err != nil {
			return // e.g. exclusion rules left no items
		}
		for _, it := range items {
			if err := it.Key.Machine().Validate(); err != nil {
				t.Fatalf("accepted spec yields item %d with an invalid machine: %v", it.Index, err)
			}
		}
	})
}
