package sram

// expVec and logVec (vmath_amd64.s) overwrite the lanes of xs with
// math.Exp and math.Log of them, four at a time, from the front. Each
// returns the number of lanes done: it stops at the first group of
// four holding a lane off its straight-line path, or when fewer than
// four lanes remain.
func expVec(xs []float64) int
func logVec(xs []float64) int
