// Four-lane AVX2 draw words for the speculative column sampler: two
// Lehmer chains of three multiply-mods each, packed and added, exactly
// as seedEntry computes them (batch.go). Every state, jump and lcgA is
// below 2^31, so VPMULUDQ's 32x32->64 product is the scalar product,
// and the modM fold is exact integer arithmetic; see batch.go for the
// gate that decides whether the loop runs at all.

#include "textflag.h"

DATA wconst<>+0(SB)/8, $0x7FFFFFFF  // M = 2^31-1
DATA wconst<>+8(SB)/8, $0x7FFFFFFE  // M-1
DATA wconst<>+16(SB)/8, $48271      // lcgA
GLOBL wconst<>(SB), RODATA|NOPTR, $24

// MODM reduces every lane of r modulo M, using t as scratch:
// r = (r & M) + (r >> 31); if r > M-1 { r -= M }. Y12 holds M, Y13 M-1.
#define MODM(r, t) \
	VPSRLQ   $31, r, t; \
	VPAND    Y12, r, r; \
	VPADDQ   t, r, r; \
	VPCMPGTQ Y13, r, t; \
	VPAND    Y12, t, t; \
	VPSUBQ   t, r, r

// func wordsVec(xs []uint64, ws []int64, jf, jt uint64, cf, ct int64) int
TEXT ·wordsVec(SB), NOSPLIT, $0-88
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ ws_base+24(FP), DI
	ANDQ $-4, CX
	VPBROADCASTQ jf+48(FP), Y8
	VPBROADCASTQ jt+56(FP), Y9
	VPBROADCASTQ cf+64(FP), Y10
	VPBROADCASTQ ct+72(FP), Y11
	VPBROADCASTQ wconst<>+0(SB), Y12
	VPBROADCASTQ wconst<>+8(SB), Y13
	VPBROADCASTQ wconst<>+16(SB), Y14
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVDQU (SI)(AX*8), Y0

	// a, c = modM(x0*jf), modM(x0*jt); ua, uc = a<<40, c<<40
	VPMULUDQ Y8, Y0, Y1
	VPMULUDQ Y9, Y0, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)
	VPSLLQ $40, Y1, Y5
	VPSLLQ $40, Y2, Y6

	// a, c = modM(a*lcgA), modM(c*lcgA); ua ^= a<<20; uc ^= c<<20
	VPMULUDQ Y14, Y1, Y1
	VPMULUDQ Y14, Y2, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)
	VPSLLQ $20, Y1, Y3
	VPSLLQ $20, Y2, Y4
	VPXOR  Y3, Y5, Y5
	VPXOR  Y4, Y6, Y6

	// a, c = modM(a*lcgA), modM(c*lcgA)
	VPMULUDQ Y14, Y1, Y1
	VPMULUDQ Y14, Y2, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)

	// (ua ^ a ^ cf) + (uc ^ c ^ ct)
	VPXOR  Y1, Y5, Y5
	VPXOR  Y10, Y5, Y5
	VPXOR  Y2, Y6, Y6
	VPXOR  Y11, Y6, Y6
	VPADDQ Y6, Y5, Y5

	VMOVDQU Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ CX, ret+80(FP)
	RET
