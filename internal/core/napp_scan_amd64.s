//go:build !purego

#include "textflag.h"

// CSA is csa in 256-bit lanes: a, b, c in (b and c may be memory), hi = the
// carry (a&b | (a^b)&c), a = the sum (a^b^c). u is a scratch register; hi
// and u must differ from a, b, c and each other.
#define CSA(a, b, c, hi, u) \
	VPXOR b, a, u; \
	VPAND b, a, hi; \
	VPAND c, u, a; \
	VPOR  a, hi, hi; \
	VPXOR c, u, a

// LOAD2 loads the current half of input windows in[i] and in[j], given as
// byte offsets i*8 and j*8 into the pointer array at DI, into Y12 and Y13.
#define LOAD2(i8, j8) \
	MOVQ    i8(DI), R8; \
	MOVQ    j8(DI), R9; \
	VMOVDQU (R8)(BX*1), Y12; \
	VMOVDQU (R9)(BX*1), Y13

// func add16AVX2(pl *countPlanes, in *[16]*scanWindow, nplanes int)
//
// countPlanes.add16 four words at a time: each 8-word window is two 256-bit
// halves (BX = 0, then 32 bytes in). Per half, Y0-Y3 hold the planes of
// weight 1, 2, 4 and 8, the 15 carry-save adders of add16's Harley–Seal
// block run in its order (Y4/Y5 twos, Y6/Y7 fours, Y8/Y9 eights), and the
// weight-16 carry (Y10) ripples through planes 4 to nplanes-1. Integer
// bitwise operations: the planes get add16's bits exactly.
TEXT ·add16AVX2(SB), NOSPLIT, $0-24
	MOVQ pl+0(FP), SI
	MOVQ in+8(FP), DI
	MOVQ nplanes+16(FP), CX
	SUBQ $4, CX
	XORQ BX, BX

half:
	VMOVDQU 0(SI)(BX*1), Y0
	VMOVDQU 64(SI)(BX*1), Y1
	VMOVDQU 128(SI)(BX*1), Y2
	VMOVDQU 192(SI)(BX*1), Y3
	LOAD2(0, 8)
	CSA(Y0, Y12, Y13, Y4, Y11)
	LOAD2(16, 24)
	CSA(Y0, Y12, Y13, Y5, Y11)
	CSA(Y1, Y4, Y5, Y6, Y11)
	LOAD2(32, 40)
	CSA(Y0, Y12, Y13, Y4, Y11)
	LOAD2(48, 56)
	CSA(Y0, Y12, Y13, Y5, Y11)
	CSA(Y1, Y4, Y5, Y7, Y11)
	CSA(Y2, Y6, Y7, Y8, Y11)
	LOAD2(64, 72)
	CSA(Y0, Y12, Y13, Y4, Y11)
	LOAD2(80, 88)
	CSA(Y0, Y12, Y13, Y5, Y11)
	CSA(Y1, Y4, Y5, Y6, Y11)
	LOAD2(96, 104)
	CSA(Y0, Y12, Y13, Y4, Y11)
	LOAD2(112, 120)
	CSA(Y0, Y12, Y13, Y5, Y11)
	CSA(Y1, Y4, Y5, Y7, Y11)
	CSA(Y2, Y6, Y7, Y9, Y11)
	CSA(Y3, Y8, Y9, Y10, Y11)
	VMOVDQU Y0, 0(SI)(BX*1)
	VMOVDQU Y1, 64(SI)(BX*1)
	VMOVDQU Y2, 128(SI)(BX*1)
	VMOVDQU Y3, 192(SI)(BX*1)

	LEAQ 256(SI)(BX*1), R10
	MOVQ CX, DX
	JMP  ripplecond

ripple:
	VMOVDQU (R10), Y11
	VPXOR   Y10, Y11, Y12
	VPAND   Y11, Y10, Y10
	VMOVDQU Y12, (R10)
	ADDQ    $64, R10
	DECQ    DX

ripplecond:
	CMPQ DX, $0
	JGT  ripple

	ADDQ $32, BX
	CMPQ BX, $64
	JLT  half

	VZEROUPPER
	RET
