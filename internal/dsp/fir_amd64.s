#include "textflag.h"

// func dot8(w Vec, s int, t []float64, y *[8]complex128)
//
// y[k] = dotReal(w[k*s:], t) for k < 8. The caller has sliced w to
// 7*s+len(t) samples. X0–X7 hold the eight windows' (real, imag) sums;
// each tap is broadcast to both lanes of X8, and every lane rounds the
// product and then the sum, in tap order, as dotReal does (no FMA).
TEXT ·dot8(SB), NOSPLIT, $0-64
	MOVQ w_base+0(FP), SI
	MOVQ s+24(FP), DX
	SHLQ $4, DX
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	MOVQ t_base+32(FP), AX
	MOVQ t_len+40(FP), CX
	LEAQ (AX)(CX*8), CX
	XORQ BX, BX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	CMPQ AX, CX
	JEQ  done

loop:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	MOVUPD   (SI)(BX*1), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   (DI)(BX*1), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   (R8)(BX*1), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   (R9)(BX*1), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVUPD   (R10)(BX*1), X9
	MULPD    X8, X9
	ADDPD    X9, X4
	MOVUPD   (R11)(BX*1), X10
	MULPD    X8, X10
	ADDPD    X10, X5
	MOVUPD   (R12)(BX*1), X11
	MULPD    X8, X11
	ADDPD    X11, X6
	MOVUPD   (R13)(BX*1), X12
	MULPD    X8, X12
	ADDPD    X12, X7
	ADDQ     $8, AX
	ADDQ     $16, BX
	CMPQ     AX, CX
	JNE      loop

done:
	MOVQ   y+56(FP), DX
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	RET
