package cpu

import (
	"testing"
	"testing/quick"
)

func l1dSpec() CacheSpec {
	return CacheSpec{Name: "L1D", SizeKB: 16, Assoc: 4, BlockBytes: 32, HitCycles: 4, HRegionOff: -1}
}

func TestCacheSpecValidate(t *testing.T) {
	good := l1dSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper L1D spec invalid: %v", err)
	}
	bad := good
	bad.SizeKB = 0
	if bad.Validate() == nil {
		t.Error("zero size accepted")
	}
	bad = good
	bad.BlockBytes = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two block accepted")
	}
	bad = good
	bad.WayCycles = []int{4, 4}
	if bad.Validate() == nil {
		t.Error("mismatched WayCycles accepted")
	}
	bad = good
	bad.WayCycles = []int{0, 0, 0, 0}
	if bad.Validate() == nil {
		t.Error("all-disabled cache accepted")
	}
	bad = good
	bad.WayCycles = []int{4, 0, 0, 0}
	bad.HRegionOff = 0
	if bad.Validate() == nil {
		t.Error("h-region plus three disabled ways leaves nothing")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(l1dSpec())
	if _, hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold cache should miss")
	}
	lat, hit, _ := c.Access(0x1000, false)
	if !hit || lat != 4 {
		t.Errorf("second access: hit=%v lat=%d, want hit at 4 cycles", hit, lat)
	}
	// Same block, different word: still a hit.
	if _, hit, _ := c.Access(0x1010, false); !hit {
		t.Error("same-block access missed")
	}
	// Different block: miss.
	if _, hit, _ := c.Access(0x1020, false); hit {
		t.Error("adjacent block should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("stats: %d accesses %d misses", c.Accesses, c.Misses)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := NewCache(l1dSpec())
	sets := uint64(c.NumSets())
	blk := uint64(32)
	// Fill all 4 ways of set 0, then touch the first line again so the
	// second becomes LRU, then force an eviction.
	addrs := []uint64{0, sets * blk, 2 * sets * blk, 3 * sets * blk}
	for _, a := range addrs {
		c.Access(a, false)
	}
	c.Access(addrs[0], false) // refresh line 0
	c.Access(4*sets*blk, false)
	if _, hit, _ := c.Access(addrs[0], false); !hit {
		t.Error("recently-used line was evicted")
	}
	if _, hit, _ := c.Access(addrs[1], false); hit {
		t.Error("LRU line should have been the victim")
	}
}

func TestCacheDisabledWay(t *testing.T) {
	spec := l1dSpec()
	spec.WayCycles = []int{0, 4, 4, 4}
	c := NewCache(spec)
	sets := uint64(c.NumSets())
	blk := uint64(32)
	// Three distinct blocks fit the 3 enabled ways of one set.
	for i := uint64(0); i < 3; i++ {
		c.Access(i*sets*blk, false)
	}
	for i := uint64(0); i < 3; i++ {
		if _, hit, _ := c.Access(i*sets*blk, false); !hit {
			t.Fatalf("block %d missing from 3 enabled ways", i)
		}
	}
	// A fourth block must evict exactly one resident (the LRU, block 0).
	c.Access(3*sets*blk, false)
	if _, hit, _ := c.Access(0, false); hit {
		t.Error("LRU block survived a fill into a full 3-way set")
	}
}

func TestCachePerWayLatency(t *testing.T) {
	spec := l1dSpec()
	spec.WayCycles = []int{5, 4, 4, 4}
	c := NewCache(spec)
	// Fill all ways of one set and re-touch: some hit must cost 5.
	sets := uint64(c.NumSets())
	blk := uint64(32)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*sets*blk, false)
	}
	saw5 := false
	for i := uint64(0); i < 4; i++ {
		lat, hit, _ := c.Access(i*sets*blk, false)
		if !hit {
			t.Fatal("refill missed")
		}
		if lat == 5 {
			saw5 = true
		} else if lat != 4 {
			t.Fatalf("unexpected latency %d", lat)
		}
	}
	if !saw5 {
		t.Error("no hit was served by the 5-cycle way")
	}
	if c.SlowHits == 0 {
		t.Error("slow hits not counted")
	}
}

func TestCacheHRegionExclusion(t *testing.T) {
	spec := l1dSpec()
	spec.HRegionOff = 1
	c := NewCache(spec)
	// Every set must have exactly 3 enabled ways, and the excluded way
	// must differ across index regions (the Figure 5 rotation).
	seen := map[int]bool{}
	for set := 0; set < c.NumSets(); set++ {
		enabled := 0
		for w := 0; w < 4; w++ {
			if c.wayEnabled(set, w) {
				enabled++
			}
		}
		if enabled != 3 {
			t.Fatalf("set %d has %d enabled ways", set, enabled)
		}
		seen[c.excludedWay(set)] = true
	}
	if len(seen) != 4 {
		t.Errorf("excluded way covers %d distinct ways, want 4 (one per region)", len(seen))
	}
	// Capacity check: behaves as a 3-way cache — three blocks fit, the
	// fourth evicts.
	sets := uint64(c.NumSets())
	blk := uint64(32)
	for i := uint64(0); i < 3; i++ {
		c.Access(i*sets*blk, false)
	}
	for i := uint64(0); i < 3; i++ {
		if _, hit, _ := c.Access(i*sets*blk, false); !hit {
			t.Fatalf("block %d missing from the 3 available ways", i)
		}
	}
	c.Access(3*sets*blk, false)
	if _, hit, _ := c.Access(0, false); hit {
		t.Error("LRU block survived a fill into a full 3-way set")
	}
}

func TestCacheWritebacks(t *testing.T) {
	c := NewCache(l1dSpec())
	sets := uint64(c.NumSets())
	blk := uint64(32)
	c.Access(0, true) // dirty
	for i := uint64(1); i <= 4; i++ {
		c.Access(i*sets*blk, false)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty line evicted)", c.Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(NewCache(cfg.L1I), NewCache(cfg.L1D), NewCache(cfg.L2), cfg.MemCycles, cfg.MSHRs)
	// Cold load: L1 miss, L2 miss, memory: 4 + 25 + 350.
	done := h.DataAccess(0x10000, false, 100)
	if done != 100+4+25+350 {
		t.Errorf("cold access completes at %d, want %d", done, 100+4+25+350)
	}
	// Now in every level: L1 hit at 4 cycles.
	if done := h.DataAccess(0x10000, false, 200); done != 204 {
		t.Errorf("warm access completes at %d, want 204", done)
	}
	// Evict from L1 only (fill the set), then hit in L2 at 4+25.
	sets := uint64(h.L1D.NumSets())
	for i := uint64(1); i <= 4; i++ {
		h.DataAccess(0x10000+i*sets*32, false, 300)
	}
	if done := h.DataAccess(0x10000, false, 400); done != 400+4+25 {
		t.Errorf("L2 hit completes at %d, want %d", done, 400+4+25)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	h := NewHierarchy(NewCache(cfg.L1I), NewCache(cfg.L1D), NewCache(cfg.L2), cfg.MemCycles, 1)
	// Two concurrent cold misses with a single MSHR: the second serialises.
	d1 := h.DataAccess(0x10000, false, 0)
	d2 := h.DataAccess(0x90000, false, 0)
	if d2 <= d1 {
		t.Errorf("second miss (%d) should wait for the single MSHR (first done %d)", d2, d1)
	}
	if h.MSHRStalls == 0 {
		t.Error("MSHR stall not counted")
	}
}

func TestWithL1D(t *testing.T) {
	cfg := DefaultConfig().WithL1D([]int{0, 5, 4, 4}, 2, 0)
	if cfg.L1D.WayCycles[0] != 0 || cfg.L1D.HRegionOff != 2 {
		t.Error("WithL1D did not apply")
	}
	if cfg.PredictedLoadCycles != 4 {
		t.Error("predicted latency should default to 4")
	}
	cfg = DefaultConfig().WithL1D(nil, -1, 6)
	if cfg.PredictedLoadCycles != 6 {
		t.Error("predicted latency override failed")
	}
}

// Property: for any address sequence the cache never reports more hits
// than accesses and inclusion of stats holds.
func TestCacheStatsProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewCache(l1dSpec())
		for _, a := range addrs {
			c.Access(uint64(a)*8, a%3 == 0)
		}
		return c.Misses <= c.Accesses && c.Accesses == uint64(len(addrs)) &&
			c.Writebacks <= c.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
