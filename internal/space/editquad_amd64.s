//go:build !purego

#include "textflag.h"

// func editQuadSteps(peq *[256]uint64, st *quadState, t *[4][]byte, from, to int)
//
// myersStep for four texts at once: Y0 holds their pv, Y1 their mv. Per text
// position the four bytes index peq and the four match words are packed into
// Y2 (eq). The step is myersStep's, rewritten so that each new pv waits on 7
// dependent operations instead of 12 (with x = (eq&pv) + pv):
//
//	xh | pv = x | eq | pv                 ((x^pv) | pv = x | pv)
//	mh      = pv & xh = pv&^x | eq&pv
//	^ph'    = ^(ph<<1 + 1) = (^ph)<<1 = (u &^ mv)<<1, u = xh | pv
//	mv'     = ph' & xv = xv &^ ^ph'
//	pv'     = mh<<1 | ^(xv | ph') = mh<<1 | ^ph' &^ xv
//
// Integer operations: each lane gets myersStep's pv and mv exactly. No score
// is kept; editQuad reads each lane's from its final pv and mv.
TEXT ·editQuadSteps(SB), NOSPLIT, $0-40
	MOVQ    peq+0(FP), SI
	MOVQ    st+8(FP), R8
	MOVQ    t+16(FP), R9
	MOVQ    from+24(FP), DI
	MOVQ    to+32(FP), R10
	MOVQ    0(R9), AX
	MOVQ    24(R9), BX
	MOVQ    48(R9), CX
	MOVQ    72(R9), DX
	VMOVDQU 0(R8), Y0
	VMOVDQU 32(R8), Y1
	CMPQ    DI, R10
	JGE     done

loop:
	MOVBQZX     (AX)(DI*1), R8
	MOVBQZX     (BX)(DI*1), R9
	MOVBQZX     (CX)(DI*1), R11
	MOVBQZX     (DX)(DI*1), R12
	VMOVQ       (SI)(R8*8), X2
	VPINSRQ     $1, (SI)(R9*8), X2, X2
	VMOVQ       (SI)(R11*8), X3
	VPINSRQ     $1, (SI)(R12*8), X3, X3
	VINSERTI128 $1, X3, Y2, Y2  // eq
	VPAND       Y2, Y0, Y5      // eq & pv
	VPADDQ      Y0, Y5, Y6      // x = (eq & pv) + pv
	VPOR        Y2, Y0, Y7
	VPOR        Y2, Y1, Y4      // xv = eq | mv
	VPOR        Y7, Y6, Y7      // u = xh | pv = x | eq | pv
	VPANDN      Y0, Y6, Y8
	VPOR        Y5, Y8, Y8      // mh = pv &^ x | eq & pv
	VPANDN      Y7, Y1, Y9      // ^ph = u &^ mv
	VPSLLQ      $1, Y9, Y9      // ^ph' = ^(ph<<1 + 1)
	VPSLLQ      $1, Y8, Y8      // mh <<= 1
	VPANDN      Y4, Y9, Y1      // mv = xv &^ ^ph'
	VPANDN      Y9, Y4, Y0
	VPOR        Y8, Y0, Y0      // pv = mh | ^ph' &^ xv
	INCQ        DI
	CMPQ        DI, R10
	JLT         loop

done:
	MOVQ       st+8(FP), R8
	VMOVDQU    Y0, 0(R8)
	VMOVDQU    Y1, 32(R8)
	VZEROUPPER
	RET
