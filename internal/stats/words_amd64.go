package stats

// wordsVec (words_amd64.s) sets ws[l] = seedEntry(xs[l], jf, cf) +
// seedEntry(xs[l], jt, ct) for the lanes of xs in whole groups of four,
// from the front, and returns the number of lanes done: len(xs) rounded
// down to a multiple of four. ws must be at least as long as xs, and
// every xs[l] must be a normalized Lehmer seed (below 2^31-1).
//
//go:noescape
func wordsVec(xs []uint64, ws []int64, jf, jt uint64, cf, ct int64) int
