package core

import (
	"context"
	"encoding/binary"
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

// coreFingerprints pins the cycle-level core's integer outputs as FNV-64a
// hashes. A dcg capture (RunAndCapture with the latchvalue channel) has
// three entries: "stats", the JSON cpu.Stats; "stream", the decoded
// per-cycle stream, each cycle's issue events and every usage field as
// Reader.Next returns them; and "bytes", the encoded trace. A plb-ext
// entry hashes the JSON cpu.Stats and PLBModeCycles of a RunBenchmark.
// Only integers are hashed, so no platform's float arithmetic can move an
// entry. The stats, stream and plb-ext entries change only when the core's
// timing or statistics do; the bytes entries also change with the trace
// encoding, which may then regenerate them alone. A deliberate change
// regenerates the table from this test's failure output. (Round-robin
// selection changes only which unit of a pool is busy, which the trace
// records and the statistics do not, so its plb-ext entries equal Table
// 1's.)
var coreFingerprints = map[string]uint64{
	"4wide-win37/gcc/dcg/bytes":    0x10b9f76cf423cf37,
	"4wide-win37/gcc/dcg/stats":    0xc904b1036b547ae3,
	"4wide-win37/gcc/dcg/stream":   0xd9945d86ca6db1a9,
	"4wide-win37/lucas/dcg/bytes":  0x78df4d44991c9a01,
	"4wide-win37/lucas/dcg/stats":  0x9f7e24a11daa205a,
	"4wide-win37/lucas/dcg/stream": 0x7baf370bca69b62a,
	"4wide-win37/mcf/dcg/bytes":    0x1c739c4a8e2ff520,
	"4wide-win37/mcf/dcg/stats":    0x1cd82c88b56df59d,
	"4wide-win37/mcf/dcg/stream":   0x688a5ad197aec1bf,
	"4wide-win37/swim/dcg/bytes":   0x482815a0c7f26a2b,
	"4wide-win37/swim/dcg/stats":   0xd87a40e60791946c,
	"4wide-win37/swim/dcg/stream":  0x70cc2045d4cb8fa4,
	"alu4-dport1/gcc/dcg/bytes":    0x5ac06e327f2203a9,
	"alu4-dport1/gcc/dcg/stats":    0x8bd33dbf0c2f0292,
	"alu4-dport1/gcc/dcg/stream":   0x40f66b140d25771d,
	"alu4-dport1/gcc/plb-ext":      0x9a70f997787c52f0,
	"alu4-dport1/lucas/dcg/bytes":  0x5e5953fde17d499d,
	"alu4-dport1/lucas/dcg/stats":  0xd4d4c10b93ab9362,
	"alu4-dport1/lucas/dcg/stream": 0x75cf3828969c0ee4,
	"alu4-dport1/lucas/plb-ext":    0x2fde07552ddb9552,
	"alu4-dport1/mcf/dcg/bytes":    0xfb2fa7fa3fa3d4d9,
	"alu4-dport1/mcf/dcg/stats":    0xcb3cc74c4bb7311d,
	"alu4-dport1/mcf/dcg/stream":   0x1e5a20721c9d980e,
	"alu4-dport1/mcf/plb-ext":      0xac60e6ab364166b2,
	"alu4-dport1/swim/dcg/bytes":   0x74d5388f5d86dc4b,
	"alu4-dport1/swim/dcg/stats":   0x0fdd8454ebf0c2fe,
	"alu4-dport1/swim/dcg/stream":  0xa4bc5777d637bb75,
	"alu4-dport1/swim/plb-ext":     0x6bc1363610dfa16d,
	"deep/gcc/dcg/bytes":           0x7b14dea4acb99b51,
	"deep/gcc/dcg/stats":           0xd4afec32bef8724f,
	"deep/gcc/dcg/stream":          0x12ca31ba6298e854,
	"deep/gcc/plb-ext":             0x518513fd8660ebd4,
	"deep/lucas/dcg/bytes":         0x09aef7725d13c528,
	"deep/lucas/dcg/stats":         0xd64bf66221ec2578,
	"deep/lucas/dcg/stream":        0xc613becfef7ac4f1,
	"deep/lucas/plb-ext":           0x97ca1dbffe284c67,
	"deep/mcf/dcg/bytes":           0x9ab052d4e4f71bff,
	"deep/mcf/dcg/stats":           0xf8ac6b7acdd9c654,
	"deep/mcf/dcg/stream":          0xe50bc1174a284353,
	"deep/mcf/plb-ext":             0xb0bac795e5b6a999,
	"deep/swim/dcg/bytes":          0x5742d6f751279d02,
	"deep/swim/dcg/stats":          0xc90ebdf99525a906,
	"deep/swim/dcg/stream":         0xd32420a6162995ea,
	"deep/swim/plb-ext":            0x66396493647fe4a4,
	"perfectbp/gcc/dcg/bytes":      0x51c120316dee329f,
	"perfectbp/gcc/dcg/stats":      0xea8027758006f751,
	"perfectbp/gcc/dcg/stream":     0x85de904d67975774,
	"perfectbp/gcc/plb-ext":        0xaa2c139358acf883,
	"perfectbp/lucas/dcg/bytes":    0xcecf0ecaa79ffb96,
	"perfectbp/lucas/dcg/stats":    0x8426856bda99bdc7,
	"perfectbp/lucas/dcg/stream":   0x46dece774e4fa64f,
	"perfectbp/lucas/plb-ext":      0xaff59e4e58f90ce1,
	"perfectbp/mcf/dcg/bytes":      0xa2df8364e89cfa97,
	"perfectbp/mcf/dcg/stats":      0x731d4d6761d2fc22,
	"perfectbp/mcf/dcg/stream":     0xa9d4313546901b82,
	"perfectbp/mcf/plb-ext":        0x51b56f61cb1f3f1f,
	"perfectbp/swim/dcg/bytes":     0xd4af483ba24c4c92,
	"perfectbp/swim/dcg/stats":     0x8cf85b283269b9e9,
	"perfectbp/swim/dcg/stream":    0xf89ed0f12c1e8ac8,
	"perfectbp/swim/plb-ext":       0x6e886722ff2c10ab,
	"roundrobin/gcc/dcg/bytes":     0xd313dfae6c0e44e4,
	"roundrobin/gcc/dcg/stats":     0xc7fa4d52c9d45dfc,
	"roundrobin/gcc/dcg/stream":    0x3dc51a77229869ad,
	"roundrobin/gcc/plb-ext":       0x31f7dd84e9acdfaf,
	"roundrobin/lucas/dcg/bytes":   0x0ccdb8fca4209dc6,
	"roundrobin/lucas/dcg/stats":   0x7b3132bd893795a8,
	"roundrobin/lucas/dcg/stream":  0xc0b9fa01e68846dd,
	"roundrobin/lucas/plb-ext":     0x10850dee055e268e,
	"roundrobin/mcf/dcg/bytes":     0x8eb7b5d49ed49a46,
	"roundrobin/mcf/dcg/stats":     0xdf3b4213ca786a7d,
	"roundrobin/mcf/dcg/stream":    0x03492a686376fea0,
	"roundrobin/mcf/plb-ext":       0x50bd99d9eca6a890,
	"roundrobin/swim/dcg/bytes":    0x3ab0e40b4207dc58,
	"roundrobin/swim/dcg/stats":    0x599783ed457df06e,
	"roundrobin/swim/dcg/stream":   0x8afae5bb6396367f,
	"roundrobin/swim/plb-ext":      0xc9090f9b6e1d51e4,
	"storedelay/gcc/dcg/bytes":     0x59d89a15157ae273,
	"storedelay/gcc/dcg/stats":     0x46a048b7bc8ddc61,
	"storedelay/gcc/dcg/stream":    0x443e87ec72f638af,
	"storedelay/gcc/plb-ext":       0xf246924880772b6b,
	"storedelay/lucas/dcg/bytes":   0x44f3d867e5f3095b,
	"storedelay/lucas/dcg/stats":   0xc69784421d018a2b,
	"storedelay/lucas/dcg/stream":  0x5db276cb16ef7642,
	"storedelay/lucas/plb-ext":     0x1b5c0dfa1cf579c4,
	"storedelay/mcf/dcg/bytes":     0x2e9ac391b5daa167,
	"storedelay/mcf/dcg/stats":     0x40c58953e09ddca4,
	"storedelay/mcf/dcg/stream":    0xac0d586e0c0b77fa,
	"storedelay/mcf/plb-ext":       0xe8782fc0c3d52847,
	"storedelay/swim/dcg/bytes":    0x0d224065ee70fde9,
	"storedelay/swim/dcg/stats":    0x5b4878fc4c32ae73,
	"storedelay/swim/dcg/stream":   0xfd93b3fbc2e8224b,
	"storedelay/swim/plb-ext":      0x4d2807089adcc9f9,
	"table1/gcc/dcg/bytes":         0x3f436d9a1aa4dedd,
	"table1/gcc/dcg/stats":         0xc7fa4d52c9d45dfc,
	"table1/gcc/dcg/stream":        0x2e0de421acdc65fc,
	"table1/gcc/plb-ext":           0x31f7dd84e9acdfaf,
	"table1/lucas/dcg/bytes":       0x5787897902631c6c,
	"table1/lucas/dcg/stats":       0x7b3132bd893795a8,
	"table1/lucas/dcg/stream":      0x15f1a86da6a7b52e,
	"table1/lucas/plb-ext":         0x10850dee055e268e,
	"table1/mcf/dcg/bytes":         0xa5411d02883aafa4,
	"table1/mcf/dcg/stats":         0xdf3b4213ca786a7d,
	"table1/mcf/dcg/stream":        0x1411019cbfb8dd1a,
	"table1/mcf/plb-ext":           0x50bd99d9eca6a890,
	"table1/swim/dcg/bytes":        0xe5fd50f9b9fef9d0,
	"table1/swim/dcg/stats":        0x599783ed457df06e,
	"table1/swim/dcg/stream":       0xa699ac8bc37bf187,
	"table1/swim/plb-ext":          0xc9090f9b6e1d51e4,
	"win16-lsq8/gcc/dcg/bytes":     0x381906c4646e531f,
	"win16-lsq8/gcc/dcg/stats":     0xe9ddb19f7123530a,
	"win16-lsq8/gcc/dcg/stream":    0xc5b63609eee4e9cb,
	"win16-lsq8/gcc/plb-ext":       0x5ff9cbd2eeb3c0e7,
	"win16-lsq8/lucas/dcg/bytes":   0xdd9383aa7c17923e,
	"win16-lsq8/lucas/dcg/stats":   0x2f230d254afa88b2,
	"win16-lsq8/lucas/dcg/stream":  0xdd85038f04bbe29a,
	"win16-lsq8/lucas/plb-ext":     0x2ac5cec9fdf9539a,
	"win16-lsq8/mcf/dcg/bytes":     0x21022a4aba33b9cd,
	"win16-lsq8/mcf/dcg/stats":     0xed3c5e6e73642119,
	"win16-lsq8/mcf/dcg/stream":    0x47c3dc41ae5caf1e,
	"win16-lsq8/mcf/plb-ext":       0xd01636f34321493b,
	"win16-lsq8/swim/dcg/bytes":    0x3072ef3bdcbfe491,
	"win16-lsq8/swim/dcg/stats":    0x8e94861b28d01c48,
	"win16-lsq8/swim/dcg/stream":   0x92fd777f3e3bd70a,
	"win16-lsq8/swim/plb-ext":      0x569eb73b57fa92ff,
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
			for part, h := range dcgFingerprints(t, sim, m.name, bench) {
				got[m.name+"/"+bench+"/dcg/"+part] = h
			}
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

// dcgFingerprints returns the stats, stream and bytes fingerprints of
// bench's 10k-instruction dcg capture on sim (machine names it in
// failures).
func dcgFingerprints(t *testing.T, sim *Simulator, machine, bench string) map[string]uint64 {
	t.Helper()
	_, tm, err := sim.RunAndCapture(context.Background(), bench, SchemeDCG, 10_000, usagetrace.ChannelLatchValue)
	if err != nil {
		t.Fatalf("%s/%s/dcg: %v", machine, bench, err)
	}
	stats := fnv.New64a()
	writeJSON(t, stats, tm.CPUStats)
	enc := fnv.New64a()
	if _, err := tm.Trace.WriteTo(enc); err != nil {
		t.Fatal(err)
	}
	return map[string]uint64{
		"stats":  stats.Sum64(),
		"stream": streamFingerprint(t, tm.Trace),
		"bytes":  enc.Sum64(),
	}
}

// streamFingerprint hashes the decoded trace cycle by cycle: every field
// of each issue event, then every usage field, latch stages included.
func streamFingerprint(t *testing.T, tr *usagetrace.Trace) uint64 {
	t.Helper()
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for {
		events, u, err := rd.Next()
		if err == io.EOF {
			return h.Sum64()
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		put(uint64(len(events)))
		for i := range events {
			ev := &events[i]
			put(ev.Cycle, uint64(ev.FUType), uint64(ev.FUIdx), ev.FUStart, uint64(ev.FULat),
				b2u(ev.IsLoad), b2u(ev.IsStore), ev.DPortCycle, b2u(ev.WritesReg), ev.ResultBusCycle)
		}
		put(u.Cycle, uint64(u.IssueCount), uint64(u.FPIssueCount), uint64(u.MemIssueCount),
			uint64(u.IntALUBusy), uint64(u.IntMultBusy), uint64(u.FPALUBusy), uint64(u.FPMultBusy),
			uint64(u.DPortUsed), uint64(u.ResultBus), uint64(u.CommitCount), uint64(u.FetchCount),
			uint64(u.WindowOccupancy))
		for _, stages := range [][]int{u.BackLatch, u.BackLatchNewVal} {
			put(uint64(len(stages)))
			for _, v := range stages {
				put(uint64(v))
			}
		}
		h.Write(buf)
	}
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
