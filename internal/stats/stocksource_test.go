package stats_test

import (
	"context"
	"testing"

	"yieldcache/internal/core"
	"yieldcache/internal/stats"
)

// TestGoldenSeed2006StockSource builds the golden seed-2006, 200-chip
// pair population on the stock math/rand source, the fallback taken
// when the O(1) source fails its init cross-check. The spot chips and
// population sums must match core's golden values (TestGoldenSeed2006)
// bit for bit: the fallback is slower, never different. The stock
// source has no speculative sampler, so no draw words either.
func TestGoldenSeed2006StockSource(t *testing.T) {
	stats.ForceStockSource(t)
	if stats.SeedJumpEnabled() {
		t.Fatal("ForceStockSource left the O(1) source enabled")
	}
	checkGolden2006(t)
}

// TestGoldenSeed2006DrawWords builds the same golden population on the
// O(1) source with the speculative sampler's four-lane draw words on
// (where the host runs them) and off.
func TestGoldenSeed2006DrawWords(t *testing.T) {
	t.Run("vector", checkGolden2006)
	t.Run("scalar", func(t *testing.T) {
		stats.ForceScalarStep(t)
		checkGolden2006(t)
	})
}

// checkGolden2006 builds the seed-2006, 200-chip pair population and
// compares it with core's golden values.
func checkGolden2006(t *testing.T) {
	res, err := core.Build(context.Background(), core.PopulationConfig{N: 200, Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	reg, hor := res.Regular, core.DeriveHorizontal(res.Regular)
	spot := []struct {
		id              int
		regLat, regLeak float64
		horLat          float64
	}{
		{0, 0x1.99af714dfd98p+09, 0x1.fca893c3e8454p-06, 0x1.a3ed6dbcbd889p+09},
		{1, 0x1.40d260d7f441cp+10, 0x1.92c3d59942c6dp-07, 0x1.48d7a343c0c36p+10},
		{7, 0x1.5659a78c88a0ep+09, 0x1.3b4886deda06ap-05, 0x1.5ee8b2233f3e7p+09},
		{63, 0x1.58e024849b3d9p+09, 0x1.b5dc87dced15dp-05, 0x1.617f58a185857p+09},
		{199, 0x1.df7828535d874p+09, 0x1.dd32ee5111516p-06, 0x1.eb74c2ef0caa9p+09},
	}
	eq := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %x, want %x", what, got, want)
		}
	}
	for _, g := range spot {
		eq("reg lat", reg.Chips[g.id].Meas.LatencyPS, g.regLat)
		eq("reg leak", reg.Chips[g.id].Meas.LeakageW, g.regLeak)
		eq("hor lat", hor.Chips[g.id].Meas.LatencyPS, g.horLat)
		eq("hor leak", hor.Chips[g.id].Meas.LeakageW, g.regLeak)
	}
	var rl, rk, hl float64
	for i := range reg.Chips {
		rl += reg.Chips[i].Meas.LatencyPS
		rk += reg.Chips[i].Meas.LeakageW
		hl += hor.Chips[i].Meas.LatencyPS
	}
	eq("reg lat sum", rl, 0x1.312d5bb4e55e8p+17)
	eq("reg leak sum", rk, 0x1.79aefc7f957cap+03)
	eq("hor lat sum", hl, 0x1.38ce7dffd1812p+17)

	lim := core.DeriveLimits(reg, core.Nominal())
	eq("limit delay", lim.DelayPS, 0x1.e5ca3362b807ap+09)
	eq("limit leak", lim.LeakageW, 0x1.6a9381c2291b8p-03)
	bd := core.BreakdownLosses(reg, lim, core.YAPD{}, core.VACA{}, core.Hybrid{})
	if bd.BaseTotal != 35 || bd.Schemes[0].Total != 13 || bd.Schemes[1].Total != 14 || bd.Schemes[2].Total != 3 {
		t.Errorf("loss breakdown = base %d yapd %d vaca %d hybrid %d, want 35/13/14/3",
			bd.BaseTotal, bd.Schemes[0].Total, bd.Schemes[1].Total, bd.Schemes[2].Total)
	}
}
