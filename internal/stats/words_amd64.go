package stats

// stepVec (words_amd64.s) runs stepCol's scalar body for the lanes of
// xs in whole groups of four, from the front, and returns the number of
// lanes done: len(xs) rounded down to a multiple of four. jf, jt, cf
// and ct are the Lehmer jumps and cooked words of column k's feed and
// tap entries. col and fs must be at least as long as xs, and every
// xs[l] must be a normalized Lehmer seed (below 2^31-1).
//
//go:noescape
func stepVec(xs []uint64, col []float64, fs []uint8, k int, jf, jt uint64, cf, ct int64, s, b float64) int
