// AVX2 kernels for the three passes of a register-blocked batch step
// (history update, right-hand-side gather, in-place substitution), plus
// the CPUID/XGETBV feature probe. See solve_amd64.go for the
// bit-identity contract: per lane these perform exactly the Go walks'
// IEEE operations in the same order — vector lanes are independent
// right-hand sides, VMULPD/VADDPD/VSUBPD are exact IEEE-754 double ops,
// and no FMA contraction is used.
//
// Each pass is one macro body (HISTORY, GATHER, FWD_BACK) instantiated
// at one, two and four ymm vectors per row. The macros come before
// every TEXT block because vet's asmdecl check reads frame references
// in source order and does not expand macros.

#include "textflag.h"

// Row shapes. A row of a W-lane block is W/4 ymm vectors held in
// Y0..Y3, addressed as (R)(AX*1) with AX = row*W*8 off a base register
// R. Y4 carries a broadcast scalar, Y5 a product or temporary, and
// Y8..Y11 the divergence accumulators, one per row vector.

#define LOAD_ROW1(R) VMOVUPD (R)(AX*1), Y0
#define LOAD_ROW2(R) LOAD_ROW1(R); VMOVUPD 32(R)(AX*1), Y1
#define LOAD_ROW4(R) LOAD_ROW2(R); VMOVUPD 64(R)(AX*1), Y2; VMOVUPD 96(R)(AX*1), Y3

#define STORE_ROW1(R) VMOVUPD Y0, (R)(AX*1)
#define STORE_ROW2(R) STORE_ROW1(R); VMOVUPD Y1, 32(R)(AX*1)
#define STORE_ROW4(R) STORE_ROW2(R); VMOVUPD Y2, 64(R)(AX*1); VMOVUPD Y3, 96(R)(AX*1)

#define ZERO_ROW1 VXORPD Y0, Y0, Y0
#define ZERO_ROW2 ZERO_ROW1; VXORPD Y1, Y1, Y1
#define ZERO_ROW4 ZERO_ROW2; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3

// row -= Y4 * (the row at (R)(AX*1)).
#define MULSUB_ROW1(R) VMULPD (R)(AX*1), Y4, Y5; VSUBPD Y5, Y0, Y0
#define MULSUB_ROW2(R) MULSUB_ROW1(R); VMULPD 32(R)(AX*1), Y4, Y5; VSUBPD Y5, Y1, Y1
#define MULSUB_ROW4(R) MULSUB_ROW2(R); VMULPD 64(R)(AX*1), Y4, Y5; VSUBPD Y5, Y2, Y2; VMULPD 96(R)(AX*1), Y4, Y5; VSUBPD Y5, Y3, Y3

// row -= (the row at (R)(AX*1)).
#define SUB_ROW1(R) VSUBPD (R)(AX*1), Y0, Y0
#define SUB_ROW2(R) SUB_ROW1(R); VSUBPD 32(R)(AX*1), Y1, Y1
#define SUB_ROW4(R) SUB_ROW2(R); VSUBPD 64(R)(AX*1), Y2, Y2; VSUBPD 96(R)(AX*1), Y3, Y3

#define SCALE_ROW1 VMULPD Y4, Y0, Y0
#define SCALE_ROW2 SCALE_ROW1; VMULPD Y4, Y1, Y1
#define SCALE_ROW4 SCALE_ROW2; VMULPD Y4, Y2, Y2; VMULPD Y4, Y3, Y3

// The history updates of the row at (R11), gv in the row registers:
// a capacitor's h = gv + (gv - h), an inductor's h = (gv + h) + gv.
#define CAP_ROW1 VSUBPD (R11), Y0, Y5; VADDPD Y5, Y0, Y5; VMOVUPD Y5, (R11)
#define CAP_ROW2 CAP_ROW1; VSUBPD 32(R11), Y1, Y5; VADDPD Y5, Y1, Y5; VMOVUPD Y5, 32(R11)
#define CAP_ROW4 CAP_ROW2; VSUBPD 64(R11), Y2, Y5; VADDPD Y5, Y2, Y5; VMOVUPD Y5, 64(R11); VSUBPD 96(R11), Y3, Y5; VADDPD Y5, Y3, Y5; VMOVUPD Y5, 96(R11)

#define IND_ROW1 VADDPD (R11), Y0, Y5; VADDPD Y0, Y5, Y5; VMOVUPD Y5, (R11)
#define IND_ROW2 IND_ROW1; VADDPD 32(R11), Y1, Y5; VADDPD Y1, Y5, Y5; VMOVUPD Y5, 32(R11)
#define IND_ROW4 IND_ROW2; VADDPD 64(R11), Y2, Y5; VADDPD Y2, Y5, Y5; VMOVUPD Y5, 64(R11); VADDPD 96(R11), Y3, Y5; VADDPD Y3, Y5, Y5; VMOVUPD Y5, 96(R11)

// Divergence check of a finished row: row - row is +0 in a finite lane
// and NaN in a NaN or ±Inf one, OR-ed into the accumulators.
#define CHECK_ROW1 VSUBPD Y0, Y0, Y5; VORPD Y5, Y8, Y8
#define CHECK_ROW2 CHECK_ROW1; VSUBPD Y1, Y1, Y5; VORPD Y5, Y9, Y9
#define CHECK_ROW4 CHECK_ROW2; VSUBPD Y2, Y2, Y5; VORPD Y5, Y10, Y10; VSUBPD Y3, Y3, Y5; VORPD Y5, Y11, Y11

#define CLEAR_CHECK1 VXORPD Y8, Y8, Y8
#define CLEAR_CHECK2 CLEAR_CHECK1; VXORPD Y9, Y9, Y9
#define CLEAR_CHECK4 CLEAR_CHECK2; VXORPD Y10, Y10, Y10; VXORPD Y11, Y11, Y11

// The divergence mask into AX: bit l is set when lane l's accumulator
// is NaN (an unordered self-compare), i.e. when some row of lane l was
// non-finite.
#define MASK_CHECK1 VCMPPD $3, Y8, Y8, Y8; VMOVMSKPD Y8, AX
#define MASK_CHECK2 MASK_CHECK1; VCMPPD $3, Y9, Y9, Y9; VMOVMSKPD Y9, CX; SHLQ $4, CX; ORQ CX, AX
#define MASK_CHECK4 MASK_CHECK2; VCMPPD $3, Y10, Y10, Y10; VMOVMSKPD Y10, CX; SHLQ $8, CX; ORQ CX, AX; VCMPPD $3, Y11, Y11, Y11; VMOVMSKPD Y11, CX; SHLQ $12, CX; ORQ CX, AX

// gv = geq[e] * (x[a[e]] - x[b[e]]) into the row registers, for the
// reactive element e in BX.
#define GV(SHIFT, LOAD_ROW, SUB_ROW, SCALE_ROW) \
	MOVL (R8)(BX*4), AX \
	SHLQ $SHIFT, AX \
	LOAD_ROW(DI) \
	MOVL (R9)(BX*4), AX \
	SHLQ $SHIFT, AX \
	SUB_ROW(DI) \
	VBROADCASTSD (R10)(BX*8), Y4 \
	SCALE_ROW

// HISTORY is the body of every history*AVX2 kernel: the capacitors'
// update over elements 0..caps-1, then the inductors' over the rest,
// each element's history row following the last one's in hist.
#define HISTORY(SHIFT, LOAD_ROW, SUB_ROW, SCALE_ROW, CAP_ROW, IND_ROW) \
	MOVQ a_base+0(FP), R8 \
	MOVQ b_base+24(FP), R9 \
	MOVQ geq_base+48(FP), R10 \
	MOVQ geq_len+56(FP), SI \
	MOVQ x_base+72(FP), DI \
	MOVQ hist_base+96(FP), R11 \
	MOVQ caps+120(FP), DX \
	XORQ BX, BX \
cap_loop: \
	CMPQ BX, DX \
	JGE  ind_loop \
	GV(SHIFT, LOAD_ROW, SUB_ROW, SCALE_ROW) \
	CAP_ROW \
	ADDQ $(1<<SHIFT), R11 \
	INCQ BX \
	JMP  cap_loop \
ind_loop: \
	CMPQ BX, SI \
	JGE  hist_done \
	GV(SHIFT, LOAD_ROW, SUB_ROW, SCALE_ROW) \
	IND_ROW \
	ADDQ $(1<<SHIFT), R11 \
	INCQ BX \
	JMP  ind_loop \
hist_done: \
	VZEROUPPER \
	RET

// GATHER is the body of every gather*AVX2 kernel: row r of x is +0
// minus coef[k] times src row col[k] over r's entries, stored once. It
// has the shape of the forward pass below, with the sources in src.
#define GATHER(SHIFT, ZERO_ROW, MULSUB_ROW, STORE_ROW) \
	MOVQ coef_base+0(FP), R8 \
	MOVQ col_base+24(FP), R9 \
	MOVQ ptr_base+48(FP), R10 \
	MOVQ src_base+72(FP), DI \
	MOVQ x_base+96(FP), R11 \
	MOVQ n+120(FP), SI \
	XORQ BX, BX \
	MOVL (R10), CX \
gather_loop: \
	CMPQ BX, SI \
	JGE  gather_done \
	MOVL 4(R10)(BX*4), DX \
	ZERO_ROW \
	CMPQ CX, DX \
	JGE  gather_store \
gather_inner: \
	VBROADCASTSD (R8)(CX*8), Y4 \
	MOVL (R9)(CX*4), AX \
	SHLQ $SHIFT, AX \
	MULSUB_ROW(DI) \
	INCQ CX \
	CMPQ CX, DX \
	JLT  gather_inner \
gather_store: \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	STORE_ROW(R11) \
	INCQ BX \
	JMP  gather_loop \
gather_done: \
	VZEROUPPER \
	RET

// FWD_BACK is the body of every fwdBack*AVX2 kernel; SHIFT is
// log2(row bytes) and the row macros fix the row shape. The forward
// pass walks rows 1..n-1 accumulating x[i] -= lVal[k]*x[lCol[k]] over
// the row's L nonzeros, skipping rows with none; the back pass walks
// rows n-1..0 over the U nonzeros, scales by invDiag[i] and checks the
// finished row. Column indices are non-negative int32, so MOVL's
// implicit zero extension is exact. Labels are scoped to the TEXT
// block, so each kernel instantiates the body once.
#define FWD_BACK(SHIFT, LOAD_ROW, STORE_ROW, MULSUB_ROW, SCALE_ROW, CLEAR_CHECK, CHECK_ROW, MASK_CHECK) \
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
	LOAD_ROW(DI) \
fwd_inner: \
	VBROADCASTSD (R8)(CX*8), Y4 \
	MOVL (R9)(CX*4), AX \
	SHLQ $SHIFT, AX \
	MULSUB_ROW(DI) \
	INCQ CX \
	CMPQ CX, DX \
	JLT  fwd_inner \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	STORE_ROW(DI) \
fwd_next: \
	INCQ BX \
	JMP  fwd_loop \
fwd_done: \
	MOVQ uVal_base+72(FP), R8 \
	MOVQ uCol_base+96(FP), R9 \
	MOVQ uPtr_base+120(FP), R10 \
	MOVQ invDiag_base+144(FP), R11 \
	CLEAR_CHECK \
	MOVQ SI, BX \
	DECQ BX \
back_loop: \
	CMPQ BX, $0 \
	JLT  back_done \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	LOAD_ROW(DI) \
	MOVL (R10)(BX*4), CX \
	MOVL 4(R10)(BX*4), DX \
	CMPQ CX, DX \
	JEQ  back_scale \
back_inner: \
	VBROADCASTSD (R8)(CX*8), Y4 \
	MOVL (R9)(CX*4), AX \
	SHLQ $SHIFT, AX \
	MULSUB_ROW(DI) \
	INCQ CX \
	CMPQ CX, DX \
	JLT  back_inner \
back_scale: \
	VBROADCASTSD (R11)(BX*8), Y4 \
	SCALE_ROW \
	CHECK_ROW \
	MOVQ BX, AX \
	SHLQ $SHIFT, AX \
	STORE_ROW(DI) \
	DECQ BX \
	JMP  back_loop \
back_done: \
	MASK_CHECK \
	MOVQ AX, diverged+200(FP) \
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
//                   uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)
//
// 4-lane rows: 32 bytes, one ymm (Y0).
TEXT ·fwdBack4AVX2(SB), NOSPLIT, $0-208
	FWD_BACK(5, LOAD_ROW1, STORE_ROW1, MULSUB_ROW1, SCALE_ROW1, CLEAR_CHECK1, CHECK_ROW1, MASK_CHECK1)

// func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                   uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)
//
// 8-lane rows: 64 bytes, Y0:Y1.
TEXT ·fwdBack8AVX2(SB), NOSPLIT, $0-208
	FWD_BACK(6, LOAD_ROW2, STORE_ROW2, MULSUB_ROW2, SCALE_ROW2, CLEAR_CHECK2, CHECK_ROW2, MASK_CHECK2)

// func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64,
//                    uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)
//
// 16-lane rows: 128 bytes, Y0:Y3.
TEXT ·fwdBack16AVX2(SB), NOSPLIT, $0-208
	FWD_BACK(7, LOAD_ROW4, STORE_ROW4, MULSUB_ROW4, SCALE_ROW4, CLEAR_CHECK4, CHECK_ROW4, MASK_CHECK4)

// func history4AVX2(a, b []int32, geq, x, hist []float64, caps int)
TEXT ·history4AVX2(SB), NOSPLIT, $0-128
	HISTORY(5, LOAD_ROW1, SUB_ROW1, SCALE_ROW1, CAP_ROW1, IND_ROW1)

// func history8AVX2(a, b []int32, geq, x, hist []float64, caps int)
TEXT ·history8AVX2(SB), NOSPLIT, $0-128
	HISTORY(6, LOAD_ROW2, SUB_ROW2, SCALE_ROW2, CAP_ROW2, IND_ROW2)

// func history16AVX2(a, b []int32, geq, x, hist []float64, caps int)
TEXT ·history16AVX2(SB), NOSPLIT, $0-128
	HISTORY(7, LOAD_ROW4, SUB_ROW4, SCALE_ROW4, CAP_ROW4, IND_ROW4)

// func gather4AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)
TEXT ·gather4AVX2(SB), NOSPLIT, $0-128
	GATHER(5, ZERO_ROW1, MULSUB_ROW1, STORE_ROW1)

// func gather8AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)
TEXT ·gather8AVX2(SB), NOSPLIT, $0-128
	GATHER(6, ZERO_ROW2, MULSUB_ROW2, STORE_ROW2)

// func gather16AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)
TEXT ·gather16AVX2(SB), NOSPLIT, $0-128
	GATHER(7, ZERO_ROW4, MULSUB_ROW4, STORE_ROW4)
