//go:build !amd64

package sram

// Without the amd64 loops every lane of expCol and logCol calls the
// scalar function.

func expVec([]float64) int { return 0 }

func logVec([]float64) int { return 0 }
