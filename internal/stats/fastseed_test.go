package stats

import (
	"math/rand"
	"testing"
)

func TestSeedJumpEnabled(t *testing.T) {
	if !SeedJumpEnabled() {
		t.Error("seed-jump source unavailable: fell back to slow math/rand seeding " +
			"(rngSource layout changed?)")
	}
}

// TestFastSourceMatchesMathRand pins the bit-identity contract: the fast
// source must emit exactly math/rand's stream for any seed, including
// past the lazy window (273 draws), the feed wrap (334) and a full
// vector cycle (607).
func TestFastSourceMatchesMathRand(t *testing.T) {
	if !SeedJumpEnabled() {
		t.Skip("seed-jump source unavailable")
	}
	fs := new(fastSource)
	for _, seed := range []int64{2006, 1, 0, -42, 1<<63 - 1, -1 << 62, 12345678901234} {
		ref := rand.NewSource(seed).(rand.Source64)
		fs.Seed(seed)
		for j := 0; j < 2000; j++ {
			if got, want := fs.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %d, want %d", seed, j, got, want)
			}
		}
	}
}

// TestReseedEqualsFresh checks that a reused generator repositioned with
// Reseed reproduces a fresh generator's full sampling behaviour,
// including the rejection loops of TruncNormal.
func TestReseedEqualsFresh(t *testing.T) {
	g := NewRNG(999)
	for _, seed := range []int64{2006, 7, -3, 0, 1 << 40} {
		// Advance g arbitrarily before reseeding.
		for i := 0; i < 57; i++ {
			g.Float64()
		}
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 200; i++ {
			if a, b := g.TruncNormal(1, 0.1, 0.3), fresh.TruncNormal(1, 0.1, 0.3); a != b {
				t.Fatalf("seed %d TruncNormal %d: %v != %v", seed, i, a, b)
			}
			if a, b := g.Normal(0, 1), fresh.Normal(0, 1); a != b {
				t.Fatalf("seed %d Normal %d: %v != %v", seed, i, a, b)
			}
			if a, b := g.Intn(1000), fresh.Intn(1000); a != b {
				t.Fatalf("seed %d Intn %d: %v != %v", seed, i, a, b)
			}
		}
	}
}

// TestReseedZeroAlloc verifies the reuse contract the allocation-free
// measurement kernel depends on.
func TestReseedZeroAlloc(t *testing.T) {
	g := NewRNG(1)
	allocs := testing.AllocsPerRun(200, func() {
		g.Reseed(42)
		for i := 0; i < 8; i++ {
			g.TruncNormal(1, 0.1, 0.3)
		}
	})
	if allocs != 0 {
		t.Errorf("Reseed+draw allocates %.1f times per run, want 0", allocs)
	}

	seeds := laneSeeds(2*specLanes+5, 3)
	sigma, bound := table1Columns(1)
	cols := columnCase{seeds: seeds, sigma: sigma, bound: bound, mean: nominalMeans}.columns()
	allocs = testing.AllocsPerRun(50, func() {
		g.TruncNormalColumns(seeds, cols, sigma, bound)
	})
	if allocs != 0 {
		t.Errorf("TruncNormalColumns allocates %.1f times per run, want 0", allocs)
	}
}

func BenchmarkReseed(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i))
		for j := 0; j < 6; j++ {
			g.TruncNormal(1, 0.1, 0.3)
		}
	}
}

func BenchmarkFreshSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i))
		for j := 0; j < 6; j++ {
			g.TruncNormal(1, 0.1, 0.3)
		}
	}
}
