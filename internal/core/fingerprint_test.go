package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"

	"dcg/internal/config"
	"dcg/internal/usagetrace"
)

// fingerprintMachines are the machine variants TestCoreFingerprint pins:
// the Table 1 machine plus one variant per core knob that changes the
// issue stage's work (pipeline depth, FU selection policy, store timing,
// window/LSQ capacity, front-end stalls, FU and D-port budgets). plbOK is
// false for the 4-wide variant only because the table was generated when
// PLB could not run there; TestPLBOnNonEightWideMachines now covers PLB on
// 4-, 6- and 16-wide machines, and TestWarmRestoreMatchesFresh runs
// plb-ext on every variant.
var fingerprintMachines = []struct {
	name  string
	plbOK bool
	cfg   func() config.Config
}{
	{"table1", true, config.Default},
	{"deep", true, config.Deep},
	{"roundrobin", true, func() config.Config {
		c := config.Default()
		c.FUSelection = config.SelectRoundRobin
		return c
	}},
	{"storedelay", true, func() config.Config {
		c := config.Default()
		c.StoreDelayPolicy = config.StoreOneCycleDelay
		return c
	}},
	{"win16-lsq8", true, func() config.Config {
		c := config.Default()
		c.WindowSize, c.LSQSize = 16, 8
		return c
	}},
	{"perfectbp", true, func() config.Config {
		c := config.Default()
		c.PerfectBPred = true
		return c
	}},
	{"alu4-dport1", true, func() config.Config {
		c := config.Default()
		c.FU.IntALU, c.DL1.Ports = 4, 1
		return c
	}},
	{"4wide-win37", false, func() config.Config {
		c := config.Default()
		c.IssueWidth, c.WindowSize = 4, 37
		return c
	}},
}

// coreFingerprints pins the cycle-level core's integer outputs: the FNV-64a
// of the JSON cpu.Stats followed, for dcg, by the encoded trace bytes of a
// RunAndCapture with the latchvalue channel and, for plb-ext, by the JSON
// PLBModeCycles of a RunBenchmark. Only integers are hashed, so no
// platform's float arithmetic can move an entry. An entry changes only when
// the core's timing or statistics do; a deliberate change regenerates the
// table from this test's failure output. (Round-robin selection changes
// only which unit of a pool is busy, which the trace records and the
// statistics do not, so its plb-ext entries equal Table 1's.)
var coreFingerprints = map[string]uint64{
	"4wide-win37/gcc/dcg":       0x6ca368211025ecf6,
	"4wide-win37/lucas/dcg":     0xec4aab8d644072ce,
	"4wide-win37/mcf/dcg":       0x59185fb5141c8db4,
	"4wide-win37/swim/dcg":      0x8800b86d2a435676,
	"alu4-dport1/gcc/dcg":       0x94f68a9c8924eb98,
	"alu4-dport1/gcc/plb-ext":   0x9a70f997787c52f0,
	"alu4-dport1/lucas/dcg":     0x3e814782397b1f9c,
	"alu4-dport1/lucas/plb-ext": 0x2fde07552ddb9552,
	"alu4-dport1/mcf/dcg":       0x443869e2bc936b1a,
	"alu4-dport1/mcf/plb-ext":   0xac60e6ab364166b2,
	"alu4-dport1/swim/dcg":      0x37eccdeea750d01c,
	"alu4-dport1/swim/plb-ext":  0x6bc1363610dfa16d,
	"deep/gcc/dcg":              0x9031ee45f2310f2e,
	"deep/gcc/plb-ext":          0x518513fd8660ebd4,
	"deep/lucas/dcg":            0x93cd4559f11b5855,
	"deep/lucas/plb-ext":        0x97ca1dbffe284c67,
	"deep/mcf/dcg":              0x6695149282f666e5,
	"deep/mcf/plb-ext":          0xb0bac795e5b6a999,
	"deep/swim/dcg":             0x12aae9af64943394,
	"deep/swim/plb-ext":         0x66396493647fe4a4,
	"perfectbp/gcc/dcg":         0x65016c655b13a23d,
	"perfectbp/gcc/plb-ext":     0xaa2c139358acf883,
	"perfectbp/lucas/dcg":       0xb05a84d02bbe100d,
	"perfectbp/lucas/plb-ext":   0xaff59e4e58f90ce1,
	"perfectbp/mcf/dcg":         0x80a1f383cead40d7,
	"perfectbp/mcf/plb-ext":     0x51b56f61cb1f3f1f,
	"perfectbp/swim/dcg":        0x99b1333d6655edc4,
	"perfectbp/swim/plb-ext":    0x6e886722ff2c10ab,
	"roundrobin/gcc/dcg":        0x22729de843b95b85,
	"roundrobin/gcc/plb-ext":    0x31f7dd84e9acdfaf,
	"roundrobin/lucas/dcg":      0xcdf68760cc172875,
	"roundrobin/lucas/plb-ext":  0x10850dee055e268e,
	"roundrobin/mcf/dcg":        0xd959591bec48f4a1,
	"roundrobin/mcf/plb-ext":    0x50bd99d9eca6a890,
	"roundrobin/swim/dcg":       0xcb32531196b0abc8,
	"roundrobin/swim/plb-ext":   0xc9090f9b6e1d51e4,
	"storedelay/gcc/dcg":        0x11e2dd087bc29f33,
	"storedelay/gcc/plb-ext":    0xf246924880772b6b,
	"storedelay/lucas/dcg":      0x65354f7cb52c7ef0,
	"storedelay/lucas/plb-ext":  0x1b5c0dfa1cf579c4,
	"storedelay/mcf/dcg":        0xdd10a103d60cb7c0,
	"storedelay/mcf/plb-ext":    0xe8782fc0c3d52847,
	"storedelay/swim/dcg":       0x13989e7433f8e352,
	"storedelay/swim/plb-ext":   0x4d2807089adcc9f9,
	"table1/gcc/dcg":            0x3863a864f36fd060,
	"table1/gcc/plb-ext":        0x31f7dd84e9acdfaf,
	"table1/lucas/dcg":          0xdce9fd3fa2ac89bc,
	"table1/lucas/plb-ext":      0x10850dee055e268e,
	"table1/mcf/dcg":            0xbba743b9b1124ffb,
	"table1/mcf/plb-ext":        0x50bd99d9eca6a890,
	"table1/swim/dcg":           0x1e975006510e7f44,
	"table1/swim/plb-ext":       0xc9090f9b6e1d51e4,
	"win16-lsq8/gcc/dcg":        0xf1a4dd122b1b4140,
	"win16-lsq8/gcc/plb-ext":    0x5ff9cbd2eeb3c0e7,
	"win16-lsq8/lucas/dcg":      0x16f8ea7beabc8bac,
	"win16-lsq8/lucas/plb-ext":  0x2ac5cec9fdf9539a,
	"win16-lsq8/mcf/dcg":        0x2ec056645ea5f2b2,
	"win16-lsq8/mcf/plb-ext":    0xd01636f34321493b,
	"win16-lsq8/swim/dcg":       0xbd4d67415e6ce5dc,
	"win16-lsq8/swim/plb-ext":   0x569eb73b57fa92ff,
}

// fingerprintBenches are the benchmarks TestCoreFingerprint runs on each
// machine: the two stall outliers plus one ordinary benchmark per suite.
var fingerprintBenches = []string{"mcf", "lucas", "gcc", "swim"}

func TestCoreFingerprint(t *testing.T) {
	got := map[string]uint64{}
	for _, m := range fingerprintMachines {
		sim := NewSimulator(m.cfg())
		sim.Warmup = 5_000
		for _, bench := range fingerprintBenches {
			got[m.name+"/"+bench+"/dcg"] = dcgFingerprint(t, sim, m.name, bench)
			if m.plbOK {
				got[m.name+"/"+bench+"/plb-ext"] = plbFingerprint(t, sim, m.name, bench)
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := false
	for _, k := range keys {
		if want, ok := coreFingerprints[k]; !ok || want != got[k] {
			t.Errorf("%s: fingerprint %#016x, want %#016x", k, got[k], want)
			bad = true
		}
	}
	if len(coreFingerprints) != len(got) {
		t.Errorf("table has %d entries, the run produced %d", len(coreFingerprints), len(got))
		bad = true
	}
	if bad {
		table := ""
		for _, k := range keys {
			table += fmt.Sprintf("\t%q: %#016x,\n", k, got[k])
		}
		t.Logf("fingerprints of this run:\n%s", table)
	}
}

// dcgFingerprint returns the FNV-64a fingerprint of bench's
// 10k-instruction dcg capture on sim (machine names it in failures).
func dcgFingerprint(t *testing.T, sim *Simulator, machine, bench string) uint64 {
	t.Helper()
	h := fnv.New64a()
	_, tm, err := sim.RunAndCapture(context.Background(), bench, SchemeDCG, 10_000, usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatalf("%s/%s/dcg: %v", machine, bench, err)
	}
	writeJSON(t, h, tm.CPUStats)
	if _, err := tm.Trace.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// plbFingerprint returns the FNV-64a fingerprint of bench's
// 10k-instruction plb-ext run on sim (machine names it in failures).
func plbFingerprint(t *testing.T, sim *Simulator, machine, bench string) uint64 {
	t.Helper()
	h := fnv.New64a()
	res, err := sim.RunBenchmark(bench, SchemePLBExt, 10_000)
	if err != nil {
		t.Fatalf("%s/%s/plb-ext: %v", machine, bench, err)
	}
	writeJSON(t, h, res.CPUStats)
	writeJSON(t, h, res.PLBModeCycles)
	return h.Sum64()
}

func writeJSON(t *testing.T, w io.Writer, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
}
