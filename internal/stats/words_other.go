//go:build !amd64

package stats

// Without the amd64 loop every lane's column step runs in Go.

func stepVec([]uint64, []float64, []uint8, int, uint64, uint64, int64, int64, float64, float64) int {
	return 0
}
