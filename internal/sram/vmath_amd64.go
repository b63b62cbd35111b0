package sram

// expVec and logVec (vmath_amd64.s) overwrite the lanes of xs with
// math.Exp and math.Log of them, four at a time, from the front. Each
// returns the number of lanes done: it stops at the first group of
// four holding a lane off its straight-line path, or when fewer than
// four lanes remain.
func expVec(xs []float64) int
func logVec(xs []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// vecSupported reports that the CPU has AVX2 and FMA and that the OS
// saves the YMM state (OSXSAVE set and XCR0 enabling XMM and YMM).
func vecSupported() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
