package stats

import "testing"

// forceStockSource makes every generator created until the test ends
// use the stock math/rand source: the fallback NewRNG takes when the
// O(1) source fails its init cross-check (seedJumpOK false). Tests that
// call it must not run in parallel with others.
func forceStockSource(t testing.TB) {
	old := seedJumpOK
	seedJumpOK = false
	t.Cleanup(func() { seedJumpOK = old })
}

// ForceStockSource exports forceStockSource to the external test
// package, whose tests build whole populations on the fallback.
var ForceStockSource = forceStockSource

// forceScalarStep makes the speculative sampler run every column step
// on the scalar body until the test ends: the path a host without
// AVX2, or a failed init cross-check, runs. Tests that call it
// must not run in parallel with others.
func forceScalarStep(t testing.TB) {
	old := vecStep
	vecStep = false
	t.Cleanup(func() { vecStep = old })
}

// ForceScalarStep exports forceScalarStep to the external test
// package, whose tests build whole populations on either step path.
var ForceScalarStep = forceScalarStep
