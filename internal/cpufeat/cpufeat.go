// Package cpufeat reports the x86 vector extensions the numeric loops
// of this module may use: the SRAM kernel's exp and log (AVX2 and FMA)
// and the sampler's column step (AVX2). Each loop still cross-checks
// itself against its scalar code at init before it runs.
//
// A feature counts only when the OS also saves its register state
// (OSXSAVE set and XCR0 enabling the XMM and YMM state). On other
// architectures every feature reads false.
package cpufeat

// AVX2 reports that the CPU has AVX2 and the OS saves the YMM state.
func AVX2() bool { return hasAVX2 }

// FMA reports that the CPU has FMA3 and the OS saves the YMM state.
func FMA() bool { return hasFMA }
