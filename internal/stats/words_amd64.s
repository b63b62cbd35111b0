// Four-lane AVX2 column step for the speculative column sampler: the
// draw words (the two seeded entries, three Lehmer values each, packed
// and added, exactly as seedEntry computes them), then math/rand's fast
// strip and TruncNormal's bound test, then the column update, exactly
// as the scalar body of stepCol does them (batch.go).
//
// Integer side: every state, jump and lcgA is below 2^31, so
// VPMULUDQ's 32x32->64 product is the scalar product, and the modM fold
// is exact. Each Lehmer value is reduced from x0 by its own jump (the
// entry's jump times lcgA^0, ^1, ^2, mod M), which is the value the
// scalar chain reaches step by step. Float side: only exact converts
// (int32 and float32 to float64) and the two IEEE multiplies of
// s*(float64(j)*float64(wn[i])), with no FMA. See batch.go for the gate
// that decides whether the loop runs at all.

#include "textflag.h"

DATA wconst<>+0(SB)/8, $0x7FFFFFFF // M = 2^31-1
DATA wconst<>+8(SB)/8, $48271      // lcgA
DATA wconst<>+16(SB)/8, $0x7F      // strip index mask
GLOBL wconst<>(SB), RODATA|NOPTR, $24

// VPERMD indexes that pack the low (even) or the high (odd) dword of
// each qword into the low 128 bits, and a mask of each qword's low
// dword.
DATA wpack<>+0(SB)/8, $0x0000000200000000
DATA wpack<>+8(SB)/8, $0x0000000600000004
DATA wpack<>+16(SB)/8, $0x0000000200000000
DATA wpack<>+24(SB)/8, $0x0000000600000004
DATA wpack<>+32(SB)/8, $0x0000000300000001
DATA wpack<>+40(SB)/8, $0x0000000700000005
DATA wpack<>+48(SB)/8, $0x0000000300000001
DATA wpack<>+56(SB)/8, $0x0000000700000005
DATA wpack<>+64(SB)/8, $0x00000000FFFFFFFF
DATA wpack<>+72(SB)/8, $0x00000000FFFFFFFF
DATA wpack<>+80(SB)/8, $0x00000000FFFFFFFF
DATA wpack<>+88(SB)/8, $0x00000000FFFFFFFF
GLOBL wpack<>(SB), RODATA|NOPTR, $96

// MODM reduces every lane of r modulo M, using t as scratch; Y12 holds
// M. r = (r & M) + (r >> 31) is below 2^32 for every product reduced
// here, and the conditional subtract is min(r, r-M) on the low dwords:
// r-M wraps to above r exactly when r < M.
#define MODM(r, t) \
	VPSRLQ  $31, r, t; \
	VPAND   Y12, r, r; \
	VPADDQ  t, r, r; \
	VPSUBD  Y12, r, t; \
	VPMINUD t, r, r

// func stepVec(xs []uint64, col []float64, fs []uint8, k int, jf, jt uint64, cf, ct int64, s, b float64) int
//
// The frame holds the six broadcast jumps (jf, jt, then each times
// lcgA, then each times lcgA^2) and the cooked words cf and ct; the
// registers hold the strip index mask (Y7), s (Y8), b (Y9), -b (Y10),
// k (Y11), M (Y12) and the even and odd pack indexes (Y15, Y13).
TEXT ·stepVec(SB), NOSPLIT, $256-136
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ col_base+24(FP), BX
	MOVQ fs_base+48(FP), DI
	MOVQ k+72(FP), R11
	ANDQ $-4, CX
	LEAQ ·knwn(SB), R12

	VPBROADCASTQ wconst<>+0(SB), Y12
	VPBROADCASTQ wconst<>+8(SB), Y14
	VPBROADCASTQ jf+80(FP), Y0
	VPBROADCASTQ jt+88(FP), Y1
	VMOVDQU      Y0, 0(SP)
	VMOVDQU      Y1, 32(SP)
	VPMULUDQ     Y14, Y0, Y0
	VPMULUDQ     Y14, Y1, Y1
	MODM(Y0, Y3)
	MODM(Y1, Y4)
	VMOVDQU      Y0, 64(SP)
	VMOVDQU      Y1, 96(SP)
	VPMULUDQ     Y14, Y0, Y0
	VPMULUDQ     Y14, Y1, Y1
	MODM(Y0, Y3)
	MODM(Y1, Y4)
	VMOVDQU      Y0, 128(SP)
	VMOVDQU      Y1, 160(SP)
	VPBROADCASTQ cf+96(FP), Y0
	VMOVDQU      Y0, 192(SP)
	VPBROADCASTQ ct+104(FP), Y0
	VMOVDQU      Y0, 224(SP)

	VPBROADCASTQ wconst<>+16(SB), Y7
	VBROADCASTSD s+112(FP), Y8
	VBROADCASTSD b+120(FP), Y9
	VXORPD       Y10, Y10, Y10
	VSUBPD       Y9, Y10, Y10
	VPBROADCASTQ k+72(FP), Y11
	VMOVDQU      wpack<>+32(SB), Y13
	VMOVDQU      wpack<>+0(SB), Y15
	XORQ         AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVDQU (SI)(AX*8), Y0

	// ua, uc = a1<<40 ^ a2<<20 ^ a3, c1<<40 ^ c2<<20 ^ c3
	VPMULUDQ 0(SP), Y0, Y1
	VPMULUDQ 32(SP), Y0, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)
	VPSLLQ   $40, Y1, Y5
	VPSLLQ   $40, Y2, Y6
	VPMULUDQ 64(SP), Y0, Y1
	VPMULUDQ 96(SP), Y0, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)
	VPSLLQ   $20, Y1, Y1
	VPSLLQ   $20, Y2, Y2
	VPXOR    Y1, Y5, Y5
	VPXOR    Y2, Y6, Y6
	VPMULUDQ 128(SP), Y0, Y1
	VPMULUDQ 160(SP), Y0, Y2
	MODM(Y1, Y3)
	MODM(Y2, Y4)
	VPXOR    Y1, Y5, Y5
	VPXOR    Y2, Y6, Y6

	// word = (ua ^ cf) + (uc ^ ct)
	VPXOR  192(SP), Y5, Y5
	VPXOR  224(SP), Y6, Y6
	VPADDQ Y6, Y5, Y5

	// j = int32(uint32(word&rngMask>>31)) is the low dword of each
	// qword of word>>31, i = j&0x7F (Y1); X5 = the four j, packed.
	VPSRLQ $31, Y5, Y5
	VPAND  Y7, Y5, Y1
	VPERMD Y5, Y15, Y5

	// Y3 = kn[i] (qwords) and X4 = wn[i] (packed), from one gather of
	// knwn[i].
	VPCMPEQQ   Y2, Y2, Y2
	VPGATHERQQ Y2, (R12)(Y1*8), Y3
	VPERMD     Y3, Y13, Y4
	VPAND      wpack<>+64(SB), Y3, Y3

	// Strip test absInt32(j) < kn[i], on qwords where both sides are
	// below 2^32, so the signed compare is the unsigned one. VPABSD
	// maps MinInt32 to 2^31, past every kn. Y3 = the lanes that pass.
	VPABSD    X5, X6
	VPMOVZXDQ X6, Y6
	VPCMPGTQ  Y6, Y3, Y3

	// v = s * (float64(j) * float64(wn[i]))
	VCVTDQ2PD X5, Y5
	VCVTPS2PD X4, Y4
	VMULPD    Y4, Y5, Y5
	VMULPD    Y5, Y8, Y5

	// Bound test v >= -b && v <= b, ordered (a NaN v fails); Y0 = the
	// lanes that pass both tests.
	VCMPPD $0x12, Y9, Y5, Y0
	VCMPPD $0x1D, Y10, Y5, Y6
	VPAND  Y6, Y0, Y0
	VPAND  Y3, Y0, Y0

	// Live lanes fs[l] > k: accept (Y0) or fail (Y6).
	VPMOVZXBQ (DI)(AX*1), Y6
	VPCMPGTQ  Y11, Y6, Y6
	VPAND     Y6, Y0, Y0
	VPANDN    Y6, Y0, Y6

	// col[l] = col[l]+v where accepted, by blend: a masked add would
	// turn -0 + 0 into +0 in the other lanes.
	VMOVUPD   (BX)(AX*8), Y1
	VADDPD    Y5, Y1, Y2
	VBLENDVPD Y0, Y2, Y1, Y1
	VMOVUPD   Y1, (BX)(AX*8)

	VMOVMSKPD Y6, DX
	TESTQ     DX, DX
	JNZ       fail

next:
	ADDQ $4, AX
	JMP  loop

	// fs[l] = k for every failing lane (one bit of DX each).
fail:
	LEAQ (DI)(AX*1), R9

failbit:
	BSFQ DX, R10
	MOVB R11, (R9)(R10*1)
	LEAQ -1(DX), R10
	ANDQ R10, DX
	JNZ  failbit
	JMP  next

done:
	VZEROUPPER
	MOVQ CX, ret+128(FP)
	RET
