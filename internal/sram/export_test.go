package sram

// scalarOnly runs f with expCol and logCol on their scalar path: the
// fallback a host without AVX2/FMA, or a failed init cross-check, runs.
// Tests that call it must not run in parallel with others.
func scalarOnly(f func()) {
	old := useVec
	useVec = false
	defer func() { useVec = old }()
	f()
}
