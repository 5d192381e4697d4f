// AVX2 substitution kernels for the in-place batch solves, plus the
// CPUID/XGETBV feature probe. See solve_amd64.go for the bit-identity
// contract: per lane these perform exactly the scalar walk's IEEE
// operations in the same order — vector lanes are independent
// right-hand sides, VMULPD/VSUBPD are exact IEEE-754 double ops, and
// no FMA contraction is used.
//
// The three kernels instantiate one macro body, FWD_BACK, at one, two
// and four ymm vectors per row. The macros come before every TEXT
// block because vet's asmdecl check reads frame references in source
// order and does not expand macros.

#include "textflag.h"

// Row shapes. A row of a W-lane block is W/4 ymm vectors held in
// Y0..Y3, addressed as (DI)(AX*1) with AX = row*W*8. Y4 carries the
// broadcast coefficient and Y5 the product.

#define LOAD_ROW1 VMOVUPD (DI)(AX*1), Y0
#define LOAD_ROW2 LOAD_ROW1; VMOVUPD 32(DI)(AX*1), Y1
#define LOAD_ROW4 LOAD_ROW2; VMOVUPD 64(DI)(AX*1), Y2; VMOVUPD 96(DI)(AX*1), Y3

#define STORE_ROW1 VMOVUPD Y0, (DI)(AX*1)
#define STORE_ROW2 STORE_ROW1; VMOVUPD Y1, 32(DI)(AX*1)
#define STORE_ROW4 STORE_ROW2; VMOVUPD Y2, 64(DI)(AX*1); VMOVUPD Y3, 96(DI)(AX*1)

// row -= Y4 * column row (the column row at (DI)(AX*1)).
#define MULSUB_ROW1 VMULPD (DI)(AX*1), Y4, Y5; VSUBPD Y5, Y0, Y0
#define MULSUB_ROW2 MULSUB_ROW1; VMULPD 32(DI)(AX*1), Y4, Y5; VSUBPD Y5, Y1, Y1
#define MULSUB_ROW4 MULSUB_ROW2; VMULPD 64(DI)(AX*1), Y4, Y5; VSUBPD Y5, Y2, Y2; VMULPD 96(DI)(AX*1), Y4, Y5; VSUBPD Y5, Y3, Y3

#define SCALE_ROW1 VMULPD Y4, Y0, Y0
#define SCALE_ROW2 SCALE_ROW1; VMULPD Y4, Y1, Y1
#define SCALE_ROW4 SCALE_ROW2; VMULPD Y4, Y2, Y2; VMULPD Y4, Y3, Y3

// FWD_BACK is the body of every fwdBack*AVX2 kernel; SHIFT is
// log2(row bytes) and the row macros fix the row shape. The forward
// pass walks rows 1..n-1 accumulating x[i] -= lVal[k]*x[lCol[k]] over
// the row's L nonzeros, skipping rows with none; the back pass walks
// rows n-1..0 over the U nonzeros and scales by invDiag[i]. Column
// indices are non-negative int32, so MOVL's implicit zero extension is
// exact. Labels are scoped to the TEXT block, so each kernel
// instantiates the body once.
#define FWD_BACK(SHIFT, LOAD_ROW, STORE_ROW, MULSUB_ROW, SCALE_ROW) \
	MOVQ x_base+168(FP), DI \
	MOVQ n+192(FP), SI \
	MOVQ lVal_base+0(FP), R8 \
	MOVQ lCol_base+24(FP), R9 \
	MOVQ lPtr_base+48(FP), R10 \
	MOVQ $1, BX \
fwd_loop: \
	CMPQ BX, SI \
	JGE  fwd_done \
	MOVL (R10)(BX*4), CX \
	MOVL 4(R10)(BX*4), DX \
	CMPQ CX, DX \
	JEQ  fwd_next \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	LOAD_ROW \
fwd_inner: \
	VBROADCASTSD (R8)(CX*8), Y4 \
	MOVL (R9)(CX*4), AX \
	SHLQ $SHIFT, AX \
	MULSUB_ROW \
	INCQ CX \
	CMPQ CX, DX \
	JLT  fwd_inner \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	STORE_ROW \
fwd_next: \
	INCQ BX \
	JMP  fwd_loop \
fwd_done: \
	MOVQ uVal_base+72(FP), R8 \
	MOVQ uCol_base+96(FP), R9 \
	MOVQ uPtr_base+120(FP), R10 \
	MOVQ invDiag_base+144(FP), R11 \
	MOVQ SI, BX \
	DECQ BX \
back_loop: \
	CMPQ BX, $0 \
	JLT  back_done \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	LOAD_ROW \
	MOVL (R10)(BX*4), CX \
	MOVL 4(R10)(BX*4), DX \
	CMPQ CX, DX \
	JEQ  back_scale \
back_inner: \
	VBROADCASTSD (R8)(CX*8), Y4 \
	MOVL (R9)(CX*4), AX \
	SHLQ $SHIFT, AX \
	MULSUB_ROW \
	INCQ CX \
	CMPQ CX, DX \
	JLT  back_inner \
back_scale: \
	VBROADCASTSD (R11)(BX*8), Y4 \
	SCALE_ROW \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	STORE_ROW \
	DECQ BX \
	JMP  back_loop \
back_done: \
	VZEROUPPER \
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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fwdBack4AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                   uCol, uPtr []int32, invDiag, x []float64, n int)
//
// 4-lane rows: 32 bytes, one ymm (Y0).
TEXT ·fwdBack4AVX2(SB), NOSPLIT, $0-200
	FWD_BACK(5, LOAD_ROW1, STORE_ROW1, MULSUB_ROW1, SCALE_ROW1)

// func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                   uCol, uPtr []int32, invDiag, x []float64, n int)
//
// 8-lane rows: 64 bytes, Y0:Y1.
TEXT ·fwdBack8AVX2(SB), NOSPLIT, $0-200
	FWD_BACK(6, LOAD_ROW2, STORE_ROW2, MULSUB_ROW2, SCALE_ROW2)

// func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                    uCol, uPtr []int32, invDiag, x []float64, n int)
//
// 16-lane rows: 128 bytes, Y0:Y3.
TEXT ·fwdBack16AVX2(SB), NOSPLIT, $0-200
	FWD_BACK(7, LOAD_ROW4, STORE_ROW4, MULSUB_ROW4, SCALE_ROW4)
