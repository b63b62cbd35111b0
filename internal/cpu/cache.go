// Package cpu is the cycle-level out-of-order processor model that
// stands in for the paper's modified SimpleScalar 3.0. It implements the
// Section 5.2 machine: a 4-wide core with a 128-entry issue queue, a
// 256-entry ROB, 7 pipeline stages between schedule and execute,
// speculative scheduling of load dependents with load-bypass buffers and
// selective replay (the VACA datapath of Section 4.3), and a lock-up-free
// two-level cache hierarchy whose L1 data cache supports per-way
// latencies, disabled ways and disabled horizontal regions.
package cpu

import "fmt"

// CacheSpec describes one cache array.
type CacheSpec struct {
	Name       string
	SizeKB     int
	Assoc      int
	BlockBytes int
	// HitCycles is the uniform hit latency. For the L1 data cache,
	// WayCycles overrides it per way: entry w is the hit latency of way
	// w, and 0 marks the way as powered down (YAPD).
	HitCycles int
	WayCycles []int
	// HRegionOff disables one horizontal region (-1 = none): each set
	// loses exactly one way, a different way per region of the set index
	// space, matching the rotated post-decoders of Figure 5.
	HRegionOff int
	// Regions is the number of horizontal regions (banks) used by the
	// HRegionOff mapping; defaults to Assoc.
	Regions int
}

// Validate checks the spec for internal consistency.
func (s CacheSpec) Validate() error {
	if s.SizeKB <= 0 || s.Assoc <= 0 || s.BlockBytes <= 0 {
		return fmt.Errorf("cpu: %s: non-positive geometry", s.Name)
	}
	sets := s.SizeKB * 1024 / s.BlockBytes / s.Assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cpu: %s: set count %d is not a positive power of two", s.Name, sets)
	}
	if s.BlockBytes&(s.BlockBytes-1) != 0 {
		return fmt.Errorf("cpu: %s: block size %d is not a power of two", s.Name, s.BlockBytes)
	}
	if s.WayCycles != nil && len(s.WayCycles) != s.Assoc {
		return fmt.Errorf("cpu: %s: WayCycles has %d entries for %d ways", s.Name, len(s.WayCycles), s.Assoc)
	}
	enabled := s.Assoc
	if s.WayCycles != nil {
		enabled = 0
		for _, c := range s.WayCycles {
			if c != 0 {
				enabled++
			}
		}
	}
	if s.HRegionOff >= 0 {
		enabled--
	}
	if enabled <= 0 {
		return fmt.Errorf("cpu: %s: no enabled ways", s.Name)
	}
	return nil
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a set-associative array with true LRU replacement.
type Cache struct {
	Spec      CacheSpec
	sets      [][]cacheLine
	blockBits uint
	setMask   uint64
	tick      uint64

	Accesses uint64
	Misses   uint64
	// SlowHits counts hits served by a way slower than the base latency
	// (the 5-cycle hits of VACA).
	SlowHits   uint64
	Writebacks uint64
}

// NewCache builds a cache from the spec; it panics on an invalid spec
// (specs are programmer-provided configuration, not runtime input).
func NewCache(spec CacheSpec) *Cache {
	if spec.Regions == 0 {
		spec.Regions = spec.Assoc
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	numSets := spec.SizeKB * 1024 / spec.BlockBytes / spec.Assoc
	c := &Cache{Spec: spec, setMask: uint64(numSets - 1)}
	for spec.BlockBytes>>c.blockBits > 1 {
		c.blockBits++
	}
	c.sets = make([][]cacheLine, numSets)
	lines := make([]cacheLine, numSets*spec.Assoc)
	for i := range c.sets {
		c.sets[i], lines = lines[:spec.Assoc], lines[spec.Assoc:]
	}
	return c
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockBits
	return int(blk & c.setMask), blk >> 0 // tag includes set bits; fine for equality
}

// wayEnabled reports whether way w may hold data for the given set.
func (c *Cache) wayEnabled(set, w int) bool {
	if c.Spec.WayCycles != nil && c.Spec.WayCycles[w] == 0 {
		return false
	}
	if c.Spec.HRegionOff >= 0 && c.excludedWay(set) == w {
		return false
	}
	return true
}

// excludedWay implements the Figure 5 post-decoder rotation: the sets of
// region r lose way (HRegionOff + r) mod Assoc, so every address keeps
// Assoc-1 places and the disabled physical region maps to a different
// way in each region of the index space.
func (c *Cache) excludedWay(set int) int {
	regions := c.Spec.Regions
	region := set * regions / len(c.sets)
	return (c.Spec.HRegionOff + region) % c.Spec.Assoc
}

// HitLatency returns the hit latency of way w.
func (c *Cache) HitLatency(w int) int {
	if c.Spec.WayCycles != nil {
		return c.Spec.WayCycles[w]
	}
	return c.Spec.HitCycles
}

// Access looks up addr, updating LRU state and statistics. On a miss it
// fills the line (evicting the LRU enabled way) and reports the miss to
// the caller, which models the next level. isWrite marks the line dirty.
// It returns the hit latency in cycles and whether it was a hit; on a
// miss the returned latency is 0 and the caller adds the lower-level
// time. evictedDirty reports whether the fill displaced a dirty line.
func (c *Cache) Access(addr uint64, isWrite bool) (lat int, hit bool, evictedDirty bool) {
	c.tick++
	c.Accesses++
	set, tag := c.index(addr)
	lines := c.sets[set]
	for w := range lines {
		if !c.wayEnabled(set, w) {
			continue
		}
		if lines[w].valid && lines[w].tag == tag {
			lines[w].lru = c.tick
			if isWrite {
				lines[w].dirty = true
			}
			l := c.HitLatency(w)
			if l > c.baseLatency() {
				c.SlowHits++
			}
			return l, true, false
		}
	}
	c.Misses++
	// Fill: an invalid enabled way if there is one (hash-picked so that
	// long-lived lines spread across ways instead of piling into way 0 —
	// a lowest-index preference would systematically park the hottest
	// blocks in one way and bias the per-way-latency results), otherwise
	// the LRU enabled way.
	victim := -1
	nInvalid := 0
	for w := range lines {
		if !c.wayEnabled(set, w) {
			continue
		}
		if !lines[w].valid {
			nInvalid++
			continue
		}
		if victim < 0 || (lines[victim].valid && lines[w].lru < lines[victim].lru) {
			victim = w
		}
	}
	if nInvalid > 0 {
		pick := int((tag ^ uint64(set)) % uint64(nInvalid))
		for w := range lines {
			if !c.wayEnabled(set, w) || lines[w].valid {
				continue
			}
			if pick == 0 {
				victim = w
				break
			}
			pick--
		}
	}
	if victim < 0 {
		panic("cpu: cache access with no enabled ways")
	}
	evictedDirty = lines[victim].valid && lines[victim].dirty
	if evictedDirty {
		c.Writebacks++
	}
	lines[victim] = cacheLine{tag: tag, valid: true, dirty: isWrite, lru: c.tick}
	return 0, false, evictedDirty
}

// Prefetch fills addr's block if it is not resident, without touching
// the demand-access statistics. It reports whether a fill happened.
func (c *Cache) Prefetch(addr uint64) bool {
	set, tag := c.index(addr)
	lines := c.sets[set]
	for w := range lines {
		if c.wayEnabled(set, w) && lines[w].valid && lines[w].tag == tag {
			return false
		}
	}
	before := c.Accesses
	missBefore := c.Misses
	c.Access(addr, false)
	c.Accesses = before
	c.Misses = missBefore
	return true
}

// baseLatency is the fastest configured hit latency.
func (c *Cache) baseLatency() int {
	if c.Spec.WayCycles == nil {
		return c.Spec.HitCycles
	}
	best := 0
	for _, l := range c.Spec.WayCycles {
		if l > 0 && (best == 0 || l < best) {
			best = l
		}
	}
	return best
}

// Hierarchy ties the caches together with the memory latency and a
// finite set of MSHRs (the caches are lock-up free, Section 5.2).
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemCycles    int

	// NextLinePrefetch fills block B+1 into the L1D on every demand miss
	// to block B — not part of the paper's machine (an extension knob
	// for the prefetch ablation; sequential workloads stop paying the
	// L2 round-trip on every fourth access).
	NextLinePrefetch bool

	mshrFree []int64 // completion time per MSHR slot

	L2Accesses    uint64
	L2Misses      uint64
	MemAccesses   uint64
	MSHRStalls    uint64
	PrefetchFills uint64
}

// NewHierarchy builds the hierarchy with the given MSHR count.
func NewHierarchy(l1i, l1d, l2 *Cache, memCycles, mshrs int) *Hierarchy {
	if mshrs <= 0 {
		mshrs = 1
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, MemCycles: memCycles, mshrFree: make([]int64, mshrs)}
}

// mshrAcquire returns the earliest time at or after now at which a slot
// is free, and books the slot until done.
func (h *Hierarchy) mshrAcquire(now int64, busy int) int64 {
	best := 0
	for i, t := range h.mshrFree {
		if t < h.mshrFree[best] {
			best = i
		}
	}
	start := now
	if h.mshrFree[best] > now {
		start = h.mshrFree[best]
		h.MSHRStalls++
	}
	h.mshrFree[best] = start + int64(busy)
	return start
}

// missPath returns the latency beyond L1 for a miss issued at time now:
// the L2 lookup, and the memory access on an L2 miss. Dirty evictions
// are modelled as writeback traffic counters only.
func (h *Hierarchy) missPath(addr uint64, isWrite bool, now int64) int64 {
	_, l2hit, _ := h.L2.Access(addr, isWrite)
	h.L2Accesses++
	lat := int64(h.L2.Spec.HitCycles)
	if !l2hit {
		h.L2Misses++
		h.MemAccesses++
		lat += int64(h.MemCycles)
	}
	start := h.mshrAcquire(now, int(lat))
	return (start - now) + lat
}

// DataAccess performs a load or store at time now and returns the cycle
// at which the data is available (loads) or the line is owned (stores).
func (h *Hierarchy) DataAccess(addr uint64, isWrite bool, now int64) int64 {
	lat, hit, _ := h.L1D.Access(addr, isWrite)
	if hit {
		return now + int64(lat)
	}
	done := now + int64(h.L1D.baseLatency()) + h.missPath(addr, isWrite, now)
	if h.NextLinePrefetch {
		// Fill the next block too; the prefetch rides the same miss
		// window (its MSHR/L2 occupancy is charged, its latency is not
		// on the demand path). Skip if already resident.
		next := addr + uint64(h.L1D.Spec.BlockBytes)
		if h.L1D.Prefetch(next) {
			h.missPath(next, false, now)
			h.PrefetchFills++
		}
	}
	return done
}
