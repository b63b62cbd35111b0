package core

import (
	"context"
	"fmt"

	"yieldcache/internal/circuit"
	"yieldcache/internal/variation"
)

// NodeYield is one row of the model-generated Figure 1 trend: the
// parametric yield of the cache at one technology node, without and
// with the yield-aware schemes.
type NodeYield struct {
	NodeNM      int
	BaseYield   float64
	YAPDYield   float64
	HybridYield float64
	LeakageLoss int // base-case chips lost to the leakage constraint
	DelayLoss   int // base-case chips lost to delay constraints
}

// YieldTrend evaluates the parametric yield across technology nodes —
// the modelled counterpart of Figure 1's parametric component. Each
// node gets its own population (same seed, node-scaled process spec and
// technology constants) and its own nominal limits; the growing
// relative variation at smaller nodes fattens both distribution tails,
// so the base parametric yield falls with scaling while the schemes
// recover a growing share.
func YieldTrend(chips int, seed int64) ([]NodeYield, error) {
	var out []NodeYield
	for _, node := range variation.Nodes() {
		spec, err := variation.SpecAt(node)
		if err != nil {
			return nil, err
		}
		tech, err := circuit.TechAt(int(node))
		if err != nil {
			return nil, err
		}
		res, err := Build(context.Background(), PopulationConfig{
			N: chips, Seed: seed, Tech: &tech, Spec: &spec,
		})
		if err != nil {
			return nil, err
		}
		pop := res.Regular
		lim := DeriveLimits(pop, Nominal())
		bd := BreakdownLosses(pop, lim, YAPD{}, Hybrid{})
		row := NodeYield{
			NodeNM:      int(node),
			BaseYield:   bd.Yield(-1),
			YAPDYield:   bd.Yield(0),
			HybridYield: bd.Yield(1),
			LeakageLoss: bd.Base[LossLeakage],
			DelayLoss:   bd.BaseTotal - bd.Base[LossLeakage],
		}
		out = append(out, row)
	}
	return out, nil
}

// String formats one trend row.
func (n NodeYield) String() string {
	return fmt.Sprintf("%2d nm: base %.1f%%, YAPD %.1f%%, Hybrid %.1f%% (leak %d, delay %d)",
		n.NodeNM, n.BaseYield*100, n.YAPDYield*100, n.HybridYield*100, n.LeakageLoss, n.DelayLoss)
}
