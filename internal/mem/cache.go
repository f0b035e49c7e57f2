// Package mem implements the memory hierarchy of Table 1: 64 KB 2-way
// 2-cycle L1 instruction and data caches, a 2 MB 8-way 12-cycle unified L2,
// and an infinite-capacity 100-cycle main memory, all with LRU replacement.
// The data cache is multi-ported; each port has its own wordline decoder,
// which is the structure DCG gates (paper section 3.3).
package mem

import (
	"fmt"
	"slices"

	"dcg/internal/config"
)

// line is one cache line's bookkeeping (the simulator is timing-only; no
// data payload is stored).
type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is a set-associative cache with true-LRU replacement and
// write-back, write-allocate policy.
type Cache struct {
	cfg     config.CacheConfig
	lines   []line // set i is lines[i*assoc : (i+1)*assoc]
	assoc   int
	setMask uint64
	offBits uint
	tick    uint64

	// Stats.
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// NewCache builds a cache from its configuration.
func NewCache(cfg config.CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	off := uint(0)
	for 1<<off < cfg.LineBytes {
		off++
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Assoc),
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
		offBits: off,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Clone returns a deep copy of the cache: contents, replacement state and
// statistics. The copy shares no memory with c.
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = slices.Clone(c.lines)
	return &d
}

// CopyFrom overwrites c's contents, replacement state and statistics with
// src's, reusing c's memory. Both must have the same geometry; a mismatch
// panics.
func (c *Cache) CopyFrom(src *Cache) {
	if len(c.lines) != len(src.lines) || c.assoc != src.assoc || c.offBits != src.offBits {
		panic(fmt.Sprintf("mem: copying cache %s into %s of a different geometry", src.cfg.Name, c.cfg.Name))
	}
	copy(c.lines, src.lines)
	c.tick = src.tick
	c.Accesses, c.Hits, c.Misses, c.Writebacks = src.Accesses, src.Hits, src.Misses, src.Writebacks
}

// set returns the ways of set i.
func (c *Cache) set(i uint64) []line {
	b := int(i) * c.assoc
	return c.lines[b : b+c.assoc]
}

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.offBits
	return blk & c.setMask, blk >> 0 // tag keeps full block address for simplicity
}

// Lookup probes the cache without modifying replacement state. Used by
// tests and the inclusive-state checker.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read or write access. It returns hit=true when the
// line was present. When a dirty victim is evicted, writeback is true and
// victimAddr is the victim line's block-aligned address.
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool, victimAddr uint64) {
	c.tick++
	c.Accesses++
	set, tag := c.index(addr)
	ways := c.set(set)
	victim := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			c.Hits++
			return true, false, 0
		}
	}
	c.Misses++
	// Miss: find victim (invalid way first, else LRU).
	found := false
	for i := range ways {
		if !ways[i].valid {
			victim = i
			found = true
			break
		}
	}
	if !found {
		for i := 1; i < len(ways); i++ {
			if ways[i].lru < ways[victim].lru {
				victim = i
			}
		}
	}
	writeback = ways[victim].valid && ways[victim].dirty
	if writeback {
		c.Writebacks++
		victimAddr = ways[victim].tag << c.offBits
	}
	ways[victim] = line{valid: true, dirty: write, tag: tag, lru: c.tick}
	return false, writeback, victimAddr
}

// ResetStats clears the access counters (cache contents are preserved).
func (c *Cache) ResetStats() { c.Accesses, c.Hits, c.Misses, c.Writebacks = 0, 0, 0, 0 }

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// InvariantCheck verifies internal consistency (hits+misses == accesses and
// no duplicate tags within a set). It is called from property tests.
func (c *Cache) InvariantCheck() error {
	if c.Hits+c.Misses != c.Accesses {
		return fmt.Errorf("mem: %s hits(%d)+misses(%d) != accesses(%d)",
			c.cfg.Name, c.Hits, c.Misses, c.Accesses)
	}
	for si := uint64(0); si <= c.setMask; si++ {
		seen := map[uint64]bool{}
		for _, w := range c.set(si) {
			if !w.valid {
				continue
			}
			if seen[w.tag] {
				return fmt.Errorf("mem: %s duplicate tag %#x in set %d", c.cfg.Name, w.tag, si)
			}
			seen[w.tag] = true
		}
	}
	return nil
}

// Hierarchy models the full memory system. Accesses are timed with a
// blocking latency model: an access that misses in a level pays that
// level's hit latency plus the latency of the next level (the paper's
// substrate, sim-outorder, uses the same additive scheme).
type Hierarchy struct {
	IL1 *Cache
	DL1 *Cache
	L2  *Cache

	l1ILat int
	l1DLat int
	l2Lat  int
	memLat int

	// DPorts is the number of D-cache ports (Table 1 processor has 2,
	// matching the "2 memory ports" PLB disables one of).
	DPorts int

	// mshrFree[i] is the cycle MSHR i becomes available; misses beyond
	// the MSHR count queue behind the earliest-free entry, bounding
	// memory-level parallelism.
	mshrFree []uint64
}

// NewHierarchy builds the memory system from the processor config.
func NewHierarchy(cfg config.Config) (*Hierarchy, error) {
	il1, err := NewCache(cfg.IL1)
	if err != nil {
		return nil, err
	}
	dl1, err := NewCache(cfg.DL1)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	mshrs := cfg.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	return &Hierarchy{
		IL1:      il1,
		DL1:      dl1,
		L2:       l2,
		l1ILat:   cfg.IL1.HitLatency,
		l1DLat:   cfg.DL1.HitLatency,
		l2Lat:    cfg.L2.HitLatency,
		memLat:   cfg.MemLat,
		DPorts:   cfg.DL1.Ports,
		mshrFree: make([]uint64, mshrs),
	}, nil
}

// Clone returns a deep copy of the memory system: the three caches and the
// MSHR file. The copy shares no memory with h.
func (h *Hierarchy) Clone() *Hierarchy {
	d := *h
	d.IL1, d.DL1, d.L2 = h.IL1.Clone(), h.DL1.Clone(), h.L2.Clone()
	d.mshrFree = slices.Clone(h.mshrFree)
	return &d
}

// CopyCaches overwrites h's three caches with src's (Cache.CopyFrom). The
// latencies and the MSHR file stay h's own: a functional warm-up leaves
// only cache state behind.
func (h *Hierarchy) CopyCaches(src *Hierarchy) {
	h.IL1.CopyFrom(src.IL1)
	h.DL1.CopyFrom(src.DL1)
	h.L2.CopyFrom(src.L2)
}

// ResetStats clears all cache statistics (contents are preserved).
func (h *Hierarchy) ResetStats() {
	h.IL1.ResetStats()
	h.DL1.ResetStats()
	h.L2.ResetStats()
}

// FetchLatency times an instruction fetch at pc and returns the access
// latency in cycles.
func (h *Hierarchy) FetchLatency(pc uint64) int {
	lat := h.l1ILat
	if hit, _, _ := h.IL1.Access(pc, false); hit {
		return lat
	}
	lat += h.l2Lat
	if hit, _, _ := h.L2.Access(pc, false); hit {
		return lat
	}
	return lat + h.memLat
}

// DataLatency times a data access and returns the latency in cycles,
// without MSHR contention (used for functional warm-up).
func (h *Hierarchy) DataLatency(addr uint64, write bool) int {
	lat, _ := h.dataAccess(addr, write)
	return lat
}

// DataLatencyAt times a data access starting at cycle now, modelling the
// bounded memory-level parallelism of the MSHR file: a D-cache miss
// occupies an MSHR for its duration, and misses beyond the MSHR count
// queue behind the earliest-free entry.
func (h *Hierarchy) DataLatencyAt(now uint64, addr uint64, write bool) int {
	lat, miss := h.dataAccess(addr, write)
	if !miss {
		return lat
	}
	// Allocate the earliest-free MSHR.
	best := 0
	for i := 1; i < len(h.mshrFree); i++ {
		if h.mshrFree[i] < h.mshrFree[best] {
			best = i
		}
	}
	start := now
	if h.mshrFree[best] > start {
		start = h.mshrFree[best] // queue behind the MSHR file
	}
	done := start + uint64(lat)
	h.mshrFree[best] = done
	return int(done - now)
}

// dataAccess performs the cache walk and returns the uncontended latency
// and whether the access missed in the D-cache.
func (h *Hierarchy) dataAccess(addr uint64, write bool) (lat int, miss bool) {
	lat = h.l1DLat
	hit, wb, victim := h.DL1.Access(addr, write)
	if hit {
		return lat, false
	}
	if wb {
		// Dirty victim written back into L2 (timing charged to the miss).
		h.L2.Access(victim, true)
	}
	lat += h.l2Lat
	if hit, _, _ := h.L2.Access(addr, false); hit {
		return lat, true
	}
	return lat + h.memLat, true
}
