// Four-lane AVX2/FMA versions of the amd64 math.Exp (its FMA path) and
// math.Log: the same IEEE operations in the same order on each lane of
// a YMM register, so every lane rounds exactly as the scalar call does.
// See vmath.go for the domain each loop accepts and the gate that
// decides whether they run at all.

#include "textflag.h"

// C4 lays down four copies of one float64 constant, so that it can be
// a 256-bit memory operand.
#define C4(sym, off, v) \
	DATA sym+(off+0)(SB)/8, v; \
	DATA sym+(off+8)(SB)/8, v; \
	DATA sym+(off+16)(SB)/8, v; \
	DATA sym+(off+24)(SB)/8, v

// exp constants, as in exp_amd64.s.
C4(vexp<>, 0, $0.5)
C4(vexp<>, 32, $1.0)
C4(vexp<>, 64, $2.0)
C4(vexp<>, 96, $1.6666666666666666667e-1)
C4(vexp<>, 128, $4.1666666666666666667e-2)
C4(vexp<>, 160, $8.3333333333333333333e-3)
C4(vexp<>, 192, $1.3888888888888888889e-3)
C4(vexp<>, 224, $1.9841269841269841270e-4)
C4(vexp<>, 256, $2.4801587301587301587e-5)
C4(vexp<>, 288, $1.4426950408889634073599246810018920)          // LOG2E
C4(vexp<>, 320, $0.69314718055966295651160180568695068359375)   // LN2U
C4(vexp<>, 352, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
C4(vexp<>, 384, $0.0625)
C4(vexp<>, 416, $708.0)                // widest |x| kept on the straight-line path
C4(vexp<>, 448, $0x7FFFFFFFFFFFFFFF)   // abs mask
C4(vexp<>, 480, $0x3FF)                // exponent bias (int64 lanes)
GLOBL vexp<>(SB), RODATA|NOPTR, $512

#define EXP_HALF vexp<>+0(SB)
#define EXP_ONE vexp<>+32(SB)
#define EXP_TWO vexp<>+64(SB)
#define EXP_C24 vexp<>+96(SB)
#define EXP_C32 vexp<>+128(SB)
#define EXP_C40 vexp<>+160(SB)
#define EXP_C48 vexp<>+192(SB)
#define EXP_C56 vexp<>+224(SB)
#define EXP_C64 vexp<>+256(SB)
#define EXP_LOG2E vexp<>+288(SB)
#define EXP_LN2U vexp<>+320(SB)
#define EXP_LN2L vexp<>+352(SB)
#define EXP_SIXTEENTH vexp<>+384(SB)
#define EXP_LIMIT vexp<>+416(SB)
#define EXP_ABS vexp<>+448(SB)
#define EXP_BIAS vexp<>+480(SB)

// log constants, as in log_amd64.s.
C4(vlog<>, 0, $7.07106781186547524401e-01)   // HSqrt2
C4(vlog<>, 32, $6.93147180369123816490e-01)  // Ln2Hi
C4(vlog<>, 64, $1.90821492927058770002e-10)  // Ln2Lo
C4(vlog<>, 96, $6.666666666666735130e-01)    // L1
C4(vlog<>, 128, $3.999999999940941908e-01)   // L2
C4(vlog<>, 160, $2.857142874366239149e-01)   // L3
C4(vlog<>, 192, $2.222219843214978396e-01)   // L4
C4(vlog<>, 224, $1.818357216161805012e-01)   // L5
C4(vlog<>, 256, $1.531383769920937332e-01)   // L6
C4(vlog<>, 288, $1.479819860511658591e-01)   // L7
C4(vlog<>, 320, $0.5)
C4(vlog<>, 352, $1.0)
C4(vlog<>, 384, $2.0)
C4(vlog<>, 416, $0x000FFFFFFFFFFFFF)  // mantissa mask; also the largest subnormal's bits
C4(vlog<>, 448, $0x7FF0000000000000)  // +Inf bits
C4(vlog<>, 480, $0x4330000000000000)  // 2^52: OR-ing in e < 2^52 gives 2^52 + e
C4(vlog<>, 512, $4503599627370496.0)  // 2^52
C4(vlog<>, 544, $1022.0)              // exponent bias - 1
GLOBL vlog<>(SB), RODATA|NOPTR, $576

#define LOG_HSQRT2 vlog<>+0(SB)
#define LOG_LN2HI vlog<>+32(SB)
#define LOG_LN2LO vlog<>+64(SB)
#define LOG_L1 vlog<>+96(SB)
#define LOG_L2 vlog<>+128(SB)
#define LOG_L3 vlog<>+160(SB)
#define LOG_L4 vlog<>+192(SB)
#define LOG_L5 vlog<>+224(SB)
#define LOG_L6 vlog<>+256(SB)
#define LOG_L7 vlog<>+288(SB)
#define LOG_HALF vlog<>+320(SB)
#define LOG_ONE vlog<>+352(SB)
#define LOG_TWO vlog<>+384(SB)
#define LOG_MANT vlog<>+416(SB)
#define LOG_INF vlog<>+448(SB)
#define LOG_MAGIC vlog<>+480(SB)
#define LOG_TWO52 vlog<>+512(SB)
#define LOG_BIAS vlog<>+544(SB)

// func expVec(xs []float64) int
TEXT ·expVec(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	XORQ AX, AX

expLoop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  expDone
	VMOVUPD (SI)(AX*8), Y0

	// Stop at a group holding NaN or |x| > 708.
	VANDPD   EXP_ABS, Y0, Y1
	VCMPPD   $2, EXP_LIMIT, Y1, Y1 // |x| <= 708, false for NaN
	VMOVMSKPD Y1, BX
	CMPL     BX, $15
	JNE      expDone

	// k = int32(x*LOG2E), rounded under MXCSR as CVTSD2SL rounds.
	VMULPD     EXP_LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// x -= k*LN2U; x -= k*LN2L, each fused.
	VFNMADD231PD EXP_LN2U, Y1, Y0
	VFNMADD231PD EXP_LN2L, Y1, Y0

	// reduce argument
	VMULPD EXP_SIXTEENTH, Y0, Y0

	// Taylor series evaluation
	VMOVUPD     EXP_C64, Y3
	VFMADD213PD EXP_C56, Y0, Y3
	VFMADD213PD EXP_C48, Y0, Y3
	VFMADD213PD EXP_C40, Y0, Y3
	VFMADD213PD EXP_C32, Y0, Y3
	VFMADD213PD EXP_C24, Y0, Y3
	VFMADD213PD EXP_HALF, Y0, Y3
	VFMADD213PD EXP_ONE, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      EXP_TWO, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      EXP_TWO, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      EXP_TWO, Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      EXP_TWO, Y0, Y3
	VFMADD213PD EXP_ONE, Y3, Y0

	// return fr * 2**k; |k| <= 1021 keeps the biased exponent in
	// [2, 2044], so the scalar code's denormal and overflow exits are
	// never taken.
	VPMOVSXDQ X2, Y4
	VPADDQ    EXP_BIAS, Y4, Y4
	VPSLLQ    $52, Y4, Y4
	VMULPD    Y4, Y0, Y0

	VMOVUPD Y0, (SI)(AX*8)
	MOVQ    DX, AX
	JMP     expLoop

expDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func logVec(xs []float64) int
TEXT ·logVec(SB), NOSPLIT, $0-32
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	XORQ AX, AX

logLoop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  logDone
	VMOVUPD (SI)(AX*8), Y0

	// Stop at a group holding anything but a positive, normal, finite
	// value: as int64 bits, 0x000FFFFFFFFFFFFF < x < 0x7FF0000000000000.
	VPCMPGTQ  LOG_MANT, Y0, Y1
	VMOVUPD   LOG_INF, Y2
	VPCMPGTQ  Y0, Y2, Y2
	VPAND     Y1, Y2, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       logDone

	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD LOG_MANT, Y0, Y3
	VORPD  LOG_HALF, Y3, Y3 // Y3 = f1
	VPSRLQ $52, Y0, Y4
	VPOR   LOG_MAGIC, Y4, Y4
	VSUBPD LOG_TWO52, Y4, Y4
	VSUBPD LOG_BIAS, Y4, Y4 // Y4 = k, exact

	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 } — the scalar CMPSD's
	// not-less-than test, HSqrt2 >= f1.
	VCMPPD $2, LOG_HSQRT2, Y3, Y5
	VANDPD LOG_ONE, Y5, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD LOG_ONE, Y5, Y5
	VMULPD Y5, Y3, Y3

	// f := f1 - 1
	VSUBPD LOG_ONE, Y3, Y3 // Y3 = f

	// s := f / (2 + f)
	VADDPD LOG_TWO, Y3, Y6
	VDIVPD Y6, Y3, Y7 // Y7 = s

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y7, Y7, Y8 // Y8 = s2
	VMULPD Y8, Y8, Y9 // Y9 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD LOG_L7, Y9, Y10
	VADDPD LOG_L5, Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD LOG_L3, Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD LOG_L1, Y10, Y10
	VMULPD Y10, Y8, Y8 // Y8 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD LOG_L6, Y9, Y10
	VADDPD LOG_L4, Y10, Y10
	VMULPD Y9, Y10, Y10
	VADDPD LOG_L2, Y10, Y10
	VMULPD Y10, Y9, Y9 // Y9 = t2

	// R := t1 + t2
	VADDPD Y9, Y8, Y8

	// hfsq := 0.5 * f * f
	VMULPD LOG_HALF, Y3, Y10
	VMULPD Y3, Y10, Y10 // Y10 = hfsq

	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y10, Y8, Y8
	VMULPD Y8, Y7, Y7
	VMULPD LOG_LN2LO, Y4, Y8
	VADDPD Y8, Y7, Y7
	VSUBPD Y7, Y10, Y10
	VSUBPD Y3, Y10, Y10
	VMULPD LOG_LN2HI, Y4, Y4
	VSUBPD Y10, Y4, Y4

	VMOVUPD Y4, (SI)(AX*8)
	MOVQ    DX, AX
	JMP     logLoop

logDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
