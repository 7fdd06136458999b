//go:build !purego

#include "textflag.h"

// func l2PairBlocks(q []float64, a, b []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float64)
//
// Four elements of both vectors per iteration. X0 holds a's accumulators
// (s0, s1) and X1 its (s2, s3); X2 and X3 hold b's. Each lane takes
// CVTPS2PD, SUBPD (vector minus q), MULPD and ADDPD: the widening,
// difference, square and sum of l2SqrPairGeneric, unfused and in index
// order, so every accumulator is rounded exactly as there.
TEXT ·l2PairBlocks(SB), NOSPLIT, $0-136
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ a_base+24(FP), AX
	MOVQ b_base+48(FP), BX
	ANDQ $-4, CX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ DX, DX
	JMP  cond

loop:
	MOVUPD   (SI)(DX*8), X4
	MOVUPD   16(SI)(DX*8), X5
	CVTPS2PD (AX)(DX*4), X6
	CVTPS2PD 8(AX)(DX*4), X7
	CVTPS2PD (BX)(DX*4), X8
	CVTPS2PD 8(BX)(DX*4), X9
	SUBPD    X4, X6
	SUBPD    X5, X7
	SUBPD    X4, X8
	SUBPD    X5, X9
	MULPD    X6, X6
	MULPD    X7, X7
	MULPD    X8, X8
	MULPD    X9, X9
	ADDPD    X6, X0
	ADDPD    X7, X1
	ADDPD    X8, X2
	ADDPD    X9, X3
	ADDQ     $4, DX

cond:
	CMPQ DX, CX
	JLT  loop

	MOVSD  X0, a0+72(FP)
	MOVHPD X0, a1+80(FP)
	MOVSD  X1, a2+88(FP)
	MOVHPD X1, a3+96(FP)
	MOVSD  X2, b0+104(FP)
	MOVHPD X2, b1+112(FP)
	MOVSD  X3, b2+120(FP)
	MOVHPD X3, b3+128(FP)
	RET

// func l2PairBlocksAVX2(q []float64, a, b []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float64)
//
// l2PairBlocks in 256-bit lanes. Y0 holds a's accumulators (s0, s1, s2, s3)
// and Y1 b's. Each step is the SSE2 pass's four operations, lane for lane:
// VCVTPS2PD, VSUBPD with the vector as first source (vector minus q), VMULPD
// and VADDPD with the accumulator as first source. There is no FMA: it
// rounds once where the scalar code rounds twice. The upper halves are
// extracted and the YMM state cleared (VZEROUPPER) before the SSE2 stores.
TEXT ·l2PairBlocksAVX2(SB), NOSPLIT, $0-136
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   a_base+24(FP), AX
	MOVQ   b_base+48(FP), BX
	ANDQ   $-4, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   DX, DX
	JMP    cond

loop:
	VMOVUPD   (SI)(DX*8), Y4
	VCVTPS2PD (AX)(DX*4), Y6
	VCVTPS2PD (BX)(DX*4), Y8
	VSUBPD    Y4, Y6, Y6
	VSUBPD    Y4, Y8, Y8
	VMULPD    Y6, Y6, Y6
	VMULPD    Y8, Y8, Y8
	VADDPD    Y6, Y0, Y0
	VADDPD    Y8, Y1, Y1
	ADDQ      $4, DX

cond:
	CMPQ DX, CX
	JLT  loop

	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	VZEROUPPER
	MOVSD        X0, a0+72(FP)
	MOVHPD       X0, a1+80(FP)
	MOVSD        X2, a2+88(FP)
	MOVHPD       X2, a3+96(FP)
	MOVSD        X1, b0+104(FP)
	MOVHPD       X1, b1+112(FP)
	MOVSD        X3, b2+120(FP)
	MOVHPD       X3, b3+128(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// func Prefetch(v []float32)
//
// One PREFETCHT0 per 64-byte line that v's bytes touch: from v's address
// rounded down to its line to the byte past its end. A prefetch is a hint:
// it never faults and changes no value. An empty v touches nothing.
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	TESTQ CX, CX
	JEQ  done
	LEAQ (SI)(CX*4), CX
	ANDQ $-64, SI

line:
	PREFETCHT0 (SI)
	ADDQ       $64, SI
	CMPQ       SI, CX
	JCS        line

done:
	RET
