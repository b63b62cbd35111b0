//go:build !amd64

package stats

// Without the amd64 loop every lane's draw word is computed in Go.

func wordsVec([]uint64, []int64, uint64, uint64, int64, int64) int { return 0 }
