package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"dcg/internal/config"
)

func smallCache(t *testing.T, size, assoc, line int) *Cache {
	t.Helper()
	c, err := NewCache(config.CacheConfig{
		Name: "test", SizeBytes: size, Assoc: assoc, LineBytes: line,
		HitLatency: 1, Ports: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := smallCache(t, 1024, 2, 32)
	if hit, _, _ := c.Access(0x100, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x100, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if hit, _, _ := c.Access(0x11F, false); !hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	if hit, _, _ := c.Access(0x120, false); hit {
		t.Fatal("next-line access hit")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 16 sets of 32B: addresses 512 bytes apart share a set.
	c := smallCache(t, 1024, 2, 32)
	const setStride = 512
	a, b, d := uint64(0x40), uint64(0x40+setStride), uint64(0x40+2*setStride)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a MRU
	c.Access(d, false) // evicts b
	if c.Lookup(b) {
		t.Error("LRU victim b still resident")
	}
	if !c.Lookup(a) {
		t.Error("MRU line a evicted")
	}
	if !c.Lookup(d) {
		t.Error("new line d missing")
	}
}

func TestCacheWritebackVictim(t *testing.T) {
	c := smallCache(t, 1024, 2, 32)
	const setStride = 512
	c.Access(0x40, true) // dirty
	c.Access(0x40+setStride, false)
	_, wb, victim := c.Access(0x40+2*setStride, false) // evicts dirty 0x40
	if !wb {
		t.Fatal("dirty eviction produced no writeback")
	}
	if victim != 0x40 {
		t.Fatalf("victim address = %#x, want 0x40", victim)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestCacheCleanEvictionNoWriteback(t *testing.T) {
	c := smallCache(t, 1024, 2, 32)
	const setStride = 512
	c.Access(0x40, false)
	c.Access(0x40+setStride, false)
	if _, wb, _ := c.Access(0x40+2*setStride, false); wb {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestCacheStatsAndReset(t *testing.T) {
	c := smallCache(t, 1024, 2, 32)
	c.Access(0x0, false)
	c.Access(0x0, false)
	if c.Accesses != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats = %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %v", got)
	}
	c.ResetStats()
	if c.Accesses != 0 || c.MissRate() != 0 {
		t.Fatal("ResetStats failed")
	}
	// Contents preserved across a stats reset.
	if hit, _, _ := c.Access(0x0, false); !hit {
		t.Fatal("contents lost on stats reset")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := config.Default()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x5000_0000)
	// Cold: L1 miss + L2 miss + memory.
	want := cfg.DL1.HitLatency + cfg.L2.HitLatency + cfg.MemLat
	if got := h.DataLatency(addr, false); got != want {
		t.Errorf("cold data latency = %d, want %d", got, want)
	}
	// Now resident in both: L1 hit.
	if got := h.DataLatency(addr, false); got != cfg.DL1.HitLatency {
		t.Errorf("warm data latency = %d, want %d", got, cfg.DL1.HitLatency)
	}
	// Fetch path mirrors it.
	pc := uint64(0x40_0000)
	want = cfg.IL1.HitLatency + cfg.L2.HitLatency + cfg.MemLat
	if got := h.FetchLatency(pc); got != want {
		t.Errorf("cold fetch latency = %d, want %d", got, want)
	}
	if got := h.FetchLatency(pc); got != cfg.IL1.HitLatency {
		t.Errorf("warm fetch latency = %d", got)
	}
}

func TestHierarchyL2HitLatency(t *testing.T) {
	cfg := config.Default()
	h, _ := NewHierarchy(cfg)
	addr := uint64(0x6000_0000)
	h.DataLatency(addr, false) // install in both levels
	// Evict from L1 by streaming a set-conflicting region (L1 is 64KB
	// 2-way: three lines 32KB apart conflict), while staying inside L2.
	h.DataLatency(addr+32<<10, false)
	h.DataLatency(addr+64<<10, false)
	got := h.DataLatency(addr, false)
	want := cfg.DL1.HitLatency + cfg.L2.HitLatency
	if got != want {
		t.Errorf("L2-hit latency = %d, want %d", got, want)
	}
}

// referenceLRU is a trivially correct fully-explicit model of one cache
// set used to cross-check the Cache against random access sequences.
type referenceLRU struct {
	assoc int
	lines []uint64 // MRU first
}

func (r *referenceLRU) access(tag uint64) bool {
	for i, l := range r.lines {
		if l == tag {
			copy(r.lines[1:i+1], r.lines[:i])
			r.lines[0] = tag
			return true
		}
	}
	r.lines = append([]uint64{tag}, r.lines...)
	if len(r.lines) > r.assoc {
		r.lines = r.lines[:r.assoc]
	}
	return false
}

// Property: the cache's hit/miss behaviour matches the reference LRU model
// for arbitrary access sequences confined to one set, and the internal
// invariants hold.
func TestQuickCacheMatchesReferenceLRU(t *testing.T) {
	f := func(seq []uint8) bool {
		c, err := NewCache(config.CacheConfig{
			Name: "q", SizeBytes: 4096, Assoc: 4, LineBytes: 64,
			HitLatency: 1, Ports: 1,
		})
		if err != nil {
			return false
		}
		ref := &referenceLRU{assoc: 4}
		const setStride = 4096 / 4 // bytes between lines in the same set
		for _, s := range seq {
			addr := uint64(s%16) * setStride // 16 distinct tags, one set
			hit, _, _ := c.Access(addr, s&0x10 != 0)
			if hit != ref.access(addr/setStride) {
				return false
			}
		}
		return c.InvariantCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses always equals accesses for arbitrary streams.
func TestQuickCacheAccounting(t *testing.T) {
	c := smallCache(t, 8192, 2, 32)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a), a&1 == 0)
		}
		return c.InvariantCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMSHRBoundsParallelism(t *testing.T) {
	mk := func(mshrs int) *Hierarchy {
		cfg := config.Default()
		cfg.MSHRs = mshrs
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Four simultaneous cold misses at cycle 0.
	latencies := func(h *Hierarchy) []int {
		var out []int
		for i := 0; i < 4; i++ {
			out = append(out, h.DataLatencyAt(0, 0x5000_0000+uint64(i)*4096, false))
		}
		return out
	}
	// With 4 MSHRs, all four proceed at the uncontended miss latency.
	wide := latencies(mk(4))
	for i, l := range wide {
		if l != wide[0] {
			t.Fatalf("4-MSHR miss %d latency %d != %d", i, l, wide[0])
		}
	}
	// With 1 MSHR, the k-th miss waits for k-1 predecessors.
	serial := latencies(mk(1))
	base := serial[0]
	for i, l := range serial {
		if want := base * (i + 1); l != want {
			t.Fatalf("1-MSHR miss %d latency %d, want %d", i, l, want)
		}
	}
}

func TestMSHRHitsUnaffected(t *testing.T) {
	cfg := config.Default()
	cfg.MSHRs = 1
	h, _ := NewHierarchy(cfg)
	addr := uint64(0x5000_0000)
	h.DataLatencyAt(0, addr, false) // install
	// Saturate the single MSHR with another miss.
	h.DataLatencyAt(0, addr+1<<20, false)
	// A hit must not queue behind the MSHR file.
	if got := h.DataLatencyAt(1, addr, false); got != cfg.DL1.HitLatency {
		t.Fatalf("hit latency %d under MSHR pressure, want %d", got, cfg.DL1.HitLatency)
	}
}

// accessOutcome is what one Cache.Access reports.
type accessOutcome struct {
	hit, writeback bool
	victim         uint64
}

// exercise runs n pseudo-random reads and writes from seed through c, over
// an address range four times its capacity, and returns every outcome.
func exercise(c *Cache, seed uint64, n int) []accessOutcome {
	out := make([]accessOutcome, 0, n)
	x := seed
	span := uint64(4 * c.cfg.SizeBytes)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		hit, wb, victim := c.Access((x>>24)%span, x>>60 == 0)
		out = append(out, accessOutcome{hit, wb, victim})
	}
	return out
}

func counters(c *Cache) [4]uint64 { return [4]uint64{c.Accesses, c.Hits, c.Misses, c.Writebacks} }

// TestCacheCopies: a Clone and a CopyFrom target behave exactly as the
// original did when copied, and driving them leaves the original's next
// outcomes equal to those of an untouched twin.
func TestCacheCopies(t *testing.T) {
	orig, twin, dst := smallCache(t, 1024, 4, 32), smallCache(t, 1024, 4, 32), smallCache(t, 1024, 4, 32)
	exercise(orig, 1, 3000)
	exercise(twin, 1, 3000)
	exercise(dst, 7, 37) // CopyFrom must overwrite all of this
	clone := orig.Clone()
	dst.CopyFrom(orig)

	want := exercise(twin, 2, 3000)
	for _, c := range []struct {
		name string
		c    *Cache
	}{{"the clone", clone}, {"the CopyFrom target", dst}, {"the original, after its copies ran,", orig}} {
		if got := exercise(c.c, 2, 3000); !slices.Equal(got, want) || counters(c.c) != counters(twin) {
			t.Errorf("%s behaves differently from an untouched twin", c.name)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("CopyFrom between geometries did not panic")
		}
	}()
	smallCache(t, 2048, 4, 32).CopyFrom(orig)
}

// TestHierarchyCopies: Clone copies all three caches and the MSHR file;
// CopyCaches copies the caches and leaves the receiver's MSHR file alone.
func TestHierarchyCopies(t *testing.T) {
	cfg := config.Default()
	build := func(mshrs int) *Hierarchy {
		c := cfg
		c.MSHRs = mshrs
		h, err := NewHierarchy(c)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	drive := func(h *Hierarchy, seed uint64, n int) []int {
		out := make([]int, 0, 2*n)
		x := seed
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			out = append(out,
				h.FetchLatency(0x40_0000+(x>>20)%(256<<10)),
				h.DataLatencyAt(uint64(i), 0x1000_0000+(x>>30)%(8<<20), x>>62 == 0))
		}
		return out
	}
	orig, twin, dst := build(8), build(8), build(2)
	drive(orig, 1, 20_000)
	drive(twin, 1, 20_000)
	clone := orig.Clone()
	dst.CopyCaches(orig)
	if len(dst.mshrFree) != 2 {
		t.Errorf("CopyCaches replaced the receiver's MSHR file (%d entries)", len(dst.mshrFree))
	}
	for name, pair := range map[string][2]*Cache{"IL1": {dst.IL1, twin.IL1}, "DL1": {dst.DL1, twin.DL1}, "L2": {dst.L2, twin.L2}} {
		if !slices.Equal(pair[0].lines, pair[1].lines) || pair[0].tick != pair[1].tick {
			t.Errorf("CopyCaches: %s differs from the original's", name)
		}
	}

	want := drive(twin, 2, 20_000)
	if got := drive(clone, 2, 20_000); !slices.Equal(got, want) {
		t.Error("the clone behaves differently from an untouched twin")
	}
	drive(dst, 3, 20_000)
	if got := drive(orig, 2, 20_000); !slices.Equal(got, want) {
		t.Error("driving the copies changed the original")
	}
}
