#include "textflag.h"

// The dense walk step on 256-bit lanes; dense.go documents the contract.
// Each body gives every column the operations of its pure-Go loop in
// walkblock.go, in the same order: VADDPD, VSUBPD, VANDPD (the sign
// clear of math.Abs), VMULPD by 0.5 (equal to /2 in every bit) and
// VDIVPD are the scalar IEEE-754 operations on four columns at once, and
// no sum is split or reordered. Nothing here checks a bound: the Go
// wrappers do, and neighbor IDs below n rest on the CSR invariant.

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func shareRowsAVX2(mass, shr *float64, offsets *int64, rows, st int, lazy bool)
//
// mass and shr point at the first row's first column, offsets at its
// offset. Every column of a row with arcs gets m/deg, or (m·0.5)/deg when
// lazy; rows without arcs are skipped.
TEXT ·shareRowsAVX2(SB), NOSPLIT, $0-41
	MOVQ mass+0(FP), DI
	MOVQ shr+8(FP), SI
	MOVQ offsets+16(FP), R8
	MOVQ rows+24(FP), R11
	LEAQ (R8)(R11*8), R11    // R11 = the last row's end offset: loop end
	MOVQ st+32(FP), R12
	SHLQ $3, R12             // R12 = row stride in bytes
	MOVQ $0x3fe0000000000000, AX
	MOVQ AX, X5
	VBROADCASTSD X5, Y5      // Y5 = 0.5 in every lane

share_row:
	MOVQ 8(R8), AX
	SUBQ (R8), AX            // AX = degree
	JEQ  share_next
	VCVTSI2SDQ AX, X6, X6
	VBROADCASTSD X6, Y6      // Y6 = float64(degree) in every lane
	XORQ CX, CX              // CX = column offset in bytes
	CMPB lazy+40(FP), $0
	JNE  share_lazy

share_plain:
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD 32(DI)(CX*1), Y1
	VDIVPD  Y6, Y0, Y0
	VDIVPD  Y6, Y1, Y1
	VMOVUPD Y0, (SI)(CX*1)
	VMOVUPD Y1, 32(SI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R12
	JNE     share_plain
	JMP     share_next

share_lazy:
	VMULPD  (DI)(CX*1), Y5, Y0
	VMULPD  32(DI)(CX*1), Y5, Y1
	VDIVPD  Y6, Y0, Y0
	VDIVPD  Y6, Y1, Y1
	VMOVUPD Y0, (SI)(CX*1)
	VMOVUPD Y1, 32(SI)(CX*1)
	ADDQ    $64, CX
	CMPQ    CX, R12
	JNE     share_lazy

share_next:
	ADDQ $8, R8
	ADDQ R12, DI
	ADDQ R12, SI
	CMPQ R8, R11
	JNE  share_row
	VZEROUPPER
	RET

// func stepRowsAVX2(mass, in, out *float64, offsets *int64, adj *graph.NodeID, target, acc *float64, u, rows, st int, lazy bool)
//
// in and adj point at their first elements, and so do mass, read and
// written only when lazy, and target, read with acc only when it is not
// nil; out points at row u's first column and offsets at row u's offset.
// For each row with arcs, per chunk of 16 columns (four accumulators) and
// then, when the stride leaves 8 over, one chunk of 8 (two): the chunk's
// sum starts at +0.0 and adds the neighbors' share rows from in in
// adjacency order, with the lazy half of the row's own mass at the
// position of its first neighbor not below u; it is stored over the
// row's mass when lazy; |sum - target[u]| is added into acc; and sum/deg,
// or (0.5·sum)/deg when lazy, is written into the row of out. A row
// without arcs adds |target[u]| into every sum in acc and writes nothing.
TEXT ·stepRowsAVX2(SB), NOSPLIT, $0-81
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DI
	MOVQ offsets+24(FP), R8
	MOVQ adj+32(FP), R9      // R9 + 4·offset addresses that arc of adj
	MOVQ u+56(FP), R10       // R10 = current row u
	MOVQ rows+64(FP), R11
	LEAQ (R8)(R11*8), R11    // R11 = the last row's end offset: loop end
	MOVQ st+72(FP), R12
	SHLQ $3, R12             // R12 = row stride in bytes
	MOVQ $0x3fe0000000000000, AX
	MOVQ AX, X5
	VBROADCASTSD X5, Y5      // Y5 = 0.5 in every lane
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X7
	VBROADCASTSD X7, Y7      // Y7 = every bit but the sign

step_row:
	MOVQ (R8), BX
	MOVQ 8(R8), DX
	MOVQ DX, AX
	SUBQ BX, AX              // AX = degree
	JEQ  step_empty
	VCVTSI2SDQ AX, X6, X6
	VBROADCASTSD X6, Y6      // Y6 = float64(degree) in every lane
	LEAQ (R9)(BX*4), BX      // BX = first arc
	LEAQ (R9)(DX*4), DX      // DX = end of the arcs
	MOVQ DX, CX              // CX = the arc the self term precedes: the end when plain
	CMPB lazy+80(FP), $0
	JEQ  step_cols
	MOVQ BX, CX

step_split:
	CMPQ CX, DX
	JEQ  step_cols
	CMPL (CX), R10
	JGE  step_cols
	ADDQ $4, CX
	JMP  step_split

step_cols:
	XORQ R14, R14            // R14 = column offset in bytes

step_quad:
	LEAQ 128(R14), R13
	CMPQ R13, R12
	JGT  step_pair
	LEAQ (SI)(R14*1), R15    // R15 = this chunk of row 0 of in
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, AX
	CMPQ   AX, CX
	JEQ    step_quad_self

step_quad_before:
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R15, R13          // R13 = this chunk of the neighbor's share row
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	VADDPD 64(R13), Y2, Y2
	VADDPD 96(R13), Y3, Y3
	ADDQ   $4, AX
	CMPQ   AX, CX
	JNE    step_quad_before

step_quad_self:
	CMPB   lazy+80(FP), $0
	JEQ    step_quad_fold    // the plain walk's arcs are all in, and it keeps no mass
	MOVQ   R10, R13
	IMULQ  R12, R13
	ADDQ   mass+0(FP), R13
	ADDQ   R14, R13          // R13 = this chunk of row u of mass
	VMULPD (R13), Y5, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(R13), Y5, Y4
	VADDPD Y4, Y1, Y1
	VMULPD 64(R13), Y5, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 96(R13), Y5, Y4
	VADDPD Y4, Y3, Y3
	CMPQ   AX, DX
	JEQ    step_quad_mass

step_quad_after:
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R15, R13
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	VADDPD 64(R13), Y2, Y2
	VADDPD 96(R13), Y3, Y3
	ADDQ   $4, AX
	CMPQ   AX, DX
	JNE    step_quad_after

step_quad_mass:
	MOVQ    R10, R13
	IMULQ   R12, R13
	ADDQ    mass+0(FP), R13
	ADDQ    R14, R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)

step_quad_fold:
	MOVQ    target+40(FP), R13
	TESTQ   R13, R13
	JEQ     step_quad_share
	VBROADCASTSD (R13)(R10*8), Y8 // Y8 = target[u] in every lane
	MOVQ    acc+48(FP), R13
	ADDQ    R14, R13         // R13 = this chunk of acc
	VSUBPD  Y8, Y0, Y9
	VSUBPD  Y8, Y1, Y10
	VSUBPD  Y8, Y2, Y11
	VSUBPD  Y8, Y3, Y12
	VANDPD  Y7, Y9, Y9
	VANDPD  Y7, Y10, Y10
	VANDPD  Y7, Y11, Y11
	VANDPD  Y7, Y12, Y12
	VMOVUPD (R13), Y13
	VMOVUPD 32(R13), Y14
	VMOVUPD 64(R13), Y15
	VMOVUPD 96(R13), Y4
	VADDPD  Y9, Y13, Y13
	VADDPD  Y10, Y14, Y14
	VADDPD  Y11, Y15, Y15
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y13, (R13)
	VMOVUPD Y14, 32(R13)
	VMOVUPD Y15, 64(R13)
	VMOVUPD Y4, 96(R13)

step_quad_share:
	CMPB    lazy+80(FP), $0
	JEQ     step_quad_div
	VMULPD  Y0, Y5, Y0
	VMULPD  Y1, Y5, Y1
	VMULPD  Y2, Y5, Y2
	VMULPD  Y3, Y5, Y3

step_quad_div:
	VDIVPD  Y6, Y0, Y0
	VDIVPD  Y6, Y1, Y1
	VDIVPD  Y6, Y2, Y2
	VDIVPD  Y6, Y3, Y3
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)
	VMOVUPD Y2, 64(DI)(R14*1)
	VMOVUPD Y3, 96(DI)(R14*1)
	ADDQ    $128, R14
	JMP     step_quad

step_pair:
	CMPQ   R14, R12
	JEQ    step_next
	LEAQ   (SI)(R14*1), R15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   BX, AX
	CMPQ   AX, CX
	JEQ    step_pair_self

step_pair_before:
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R15, R13
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	ADDQ   $4, AX
	CMPQ   AX, CX
	JNE    step_pair_before

step_pair_self:
	CMPB   lazy+80(FP), $0
	JEQ    step_pair_fold
	MOVQ   R10, R13
	IMULQ  R12, R13
	ADDQ   mass+0(FP), R13
	ADDQ   R14, R13
	VMULPD (R13), Y5, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(R13), Y5, Y4
	VADDPD Y4, Y1, Y1
	CMPQ   AX, DX
	JEQ    step_pair_mass

step_pair_after:
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R15, R13
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	ADDQ   $4, AX
	CMPQ   AX, DX
	JNE    step_pair_after

step_pair_mass:
	MOVQ    R10, R13
	IMULQ   R12, R13
	ADDQ    mass+0(FP), R13
	ADDQ    R14, R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)

step_pair_fold:
	MOVQ    target+40(FP), R13
	TESTQ   R13, R13
	JEQ     step_pair_share
	VBROADCASTSD (R13)(R10*8), Y8
	MOVQ    acc+48(FP), R13
	ADDQ    R14, R13
	VSUBPD  Y8, Y0, Y9
	VSUBPD  Y8, Y1, Y10
	VANDPD  Y7, Y9, Y9
	VANDPD  Y7, Y10, Y10
	VMOVUPD (R13), Y13
	VMOVUPD 32(R13), Y14
	VADDPD  Y9, Y13, Y13
	VADDPD  Y10, Y14, Y14
	VMOVUPD Y13, (R13)
	VMOVUPD Y14, 32(R13)

step_pair_share:
	CMPB    lazy+80(FP), $0
	JEQ     step_pair_div
	VMULPD  Y0, Y5, Y0
	VMULPD  Y1, Y5, Y1

step_pair_div:
	VDIVPD  Y6, Y0, Y0
	VDIVPD  Y6, Y1, Y1
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)
	JMP     step_next

step_empty:
	MOVQ    target+40(FP), R13
	TESTQ   R13, R13
	JEQ     step_next
	VBROADCASTSD (R13)(R10*8), Y8
	VANDPD  Y7, Y8, Y8       // Y8 = |target[u]|, which is |+0.0 - target[u]|
	MOVQ    acc+48(FP), R13
	XORQ    R14, R14

step_empty_col:
	VMOVUPD (R13)(R14*1), Y0
	VADDPD  Y8, Y0, Y0
	VMOVUPD Y0, (R13)(R14*1)
	ADDQ    $32, R14
	CMPQ    R14, R12
	JNE     step_empty_col

step_next:
	ADDQ $8, R8
	ADDQ R12, DI
	INCQ R10
	CMPQ R8, R11
	JNE  step_row
	VZEROUPPER
	RET

// func distancesAVX2(mass, target, acc *float64, rows, st int)
//
// mass points at a row's first column and target at that row's entry;
// rows is at least 1. For every column, acc[j] += |mass[v][j] - target[v]|
// over the rows in ascending order: per chunk of 16 columns (four
// accumulators) and then, when the stride leaves 8 over, one chunk of 8.
TEXT ·distancesAVX2(SB), NOSPLIT, $0-40
	MOVQ mass+0(FP), DI
	MOVQ target+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ rows+24(FP), R11
	MOVQ st+32(FP), R12
	SHLQ $3, R12             // R12 = row stride in bytes
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X7
	VBROADCASTSD X7, Y7      // Y7 = every bit but the sign
	XORQ R14, R14            // R14 = column offset in bytes

dist_quad:
	LEAQ    128(R14), R13
	CMPQ    R13, R12
	JGT     dist_pair
	VMOVUPD (DX)(R14*1), Y0
	VMOVUPD 32(DX)(R14*1), Y1
	VMOVUPD 64(DX)(R14*1), Y2
	VMOVUPD 96(DX)(R14*1), Y3
	LEAQ    (DI)(R14*1), AX  // AX = this chunk of row v
	MOVQ    SI, BX           // BX = &target[v]
	MOVQ    R11, CX          // CX = rows left

dist_quad_row:
	VBROADCASTSD (BX), Y4
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	VSUBPD  Y4, Y8, Y8
	VSUBPD  Y4, Y9, Y9
	VSUBPD  Y4, Y10, Y10
	VSUBPD  Y4, Y11, Y11
	VANDPD  Y7, Y8, Y8
	VANDPD  Y7, Y9, Y9
	VANDPD  Y7, Y10, Y10
	VANDPD  Y7, Y11, Y11
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y10, Y2, Y2
	VADDPD  Y11, Y3, Y3
	ADDQ    R12, AX
	ADDQ    $8, BX
	DECQ    CX
	JNE     dist_quad_row
	VMOVUPD Y0, (DX)(R14*1)
	VMOVUPD Y1, 32(DX)(R14*1)
	VMOVUPD Y2, 64(DX)(R14*1)
	VMOVUPD Y3, 96(DX)(R14*1)
	ADDQ    $128, R14
	JMP     dist_quad

dist_pair:
	CMPQ    R14, R12
	JEQ     dist_done
	VMOVUPD (DX)(R14*1), Y0
	VMOVUPD 32(DX)(R14*1), Y1
	LEAQ    (DI)(R14*1), AX
	MOVQ    SI, BX
	MOVQ    R11, CX

dist_pair_row:
	VBROADCASTSD (BX), Y4
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	VSUBPD  Y4, Y8, Y8
	VSUBPD  Y4, Y9, Y9
	VANDPD  Y7, Y8, Y8
	VANDPD  Y7, Y9, Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	ADDQ    R12, AX
	ADDQ    $8, BX
	DECQ    CX
	JNE     dist_pair_row
	VMOVUPD Y0, (DX)(R14*1)
	VMOVUPD Y1, 32(DX)(R14*1)

dist_done:
	VZEROUPPER
	RET
