package main

import (
	"context"
	"reflect"
	"testing"

	"dcg/internal/core"
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
