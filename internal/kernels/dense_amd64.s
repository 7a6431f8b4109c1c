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

// func shareRowsAVX2(cur, shr *float64, offsets *int64, rows, st int, lazy bool)
//
// cur and shr point at the first row's first column, offsets at its
// offset. Every column of a row with arcs gets m/deg, or (m·0.5)/deg when
// lazy; rows without arcs are skipped.
TEXT ·shareRowsAVX2(SB), NOSPLIT, $0-41
	MOVQ cur+0(FP), DI
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

// func gatherRowsAVX2(cur, shr *float64, offsets *int64, adj *graph.NodeID, u, rows, st int, lazy bool)
//
// cur points at row u's first column, offsets at row u's offset, shr and
// adj at their first elements. Each row with arcs is rebuilt in place:
// per chunk of 16 columns (four accumulators) and then, when the stride
// leaves 8 over, one chunk of 8 (two), the chunk's sum starts at +0.0 and
// adds the neighbors' share rows in adjacency order, with the lazy half
// of the row's own mass at the position of its first neighbor not below u.
TEXT ·gatherRowsAVX2(SB), NOSPLIT, $0-57
	MOVQ cur+0(FP), DI
	MOVQ shr+8(FP), SI
	MOVQ offsets+16(FP), R8
	MOVQ adj+24(FP), R9      // R9 + 4·offset addresses that arc of adj
	MOVQ u+32(FP), R10       // R10 = current row u
	MOVQ rows+40(FP), R11
	LEAQ (R8)(R11*8), R11    // R11 = the last row's end offset: loop end
	MOVQ st+48(FP), R12
	SHLQ $3, R12             // R12 = row stride in bytes
	MOVQ $0x3fe0000000000000, AX
	MOVQ AX, X5
	VBROADCASTSD X5, Y5      // Y5 = 0.5 in every lane

gather_row:
	MOVQ (R8), BX
	MOVQ 8(R8), DX
	CMPQ BX, DX
	JEQ  gather_next         // rows without arcs keep their mass
	LEAQ (R9)(BX*4), BX      // BX = first arc
	LEAQ (R9)(DX*4), DX      // DX = end of the arcs
	XORQ CX, CX              // CX = the arc the self term precedes; no arc is at address 0
	CMPB lazy+56(FP), $0
	JEQ  gather_cols
	MOVQ BX, CX

gather_split:
	CMPQ CX, DX
	JEQ  gather_cols
	CMPL (CX), R10
	JGE  gather_cols
	ADDQ $4, CX
	JMP  gather_split

gather_cols:
	XORQ R14, R14            // R14 = column offset in bytes

gather_quad:
	LEAQ 128(R14), R13
	CMPQ R13, R12
	JGT  gather_pair
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, AX

gather_quad_arc:
	CMPQ   AX, CX
	JNE    gather_quad_neighbor
	VMULPD (DI)(R14*1), Y5, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(DI)(R14*1), Y5, Y4
	VADDPD Y4, Y1, Y1
	VMULPD 64(DI)(R14*1), Y5, Y4
	VADDPD Y4, Y2, Y2
	VMULPD 96(DI)(R14*1), Y5, Y4
	VADDPD Y4, Y3, Y3

gather_quad_neighbor:
	CMPQ   AX, DX
	JEQ    gather_quad_store
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R14, R13          // R13 = this chunk's offset in the neighbor's share row
	VADDPD (SI)(R13*1), Y0, Y0
	VADDPD 32(SI)(R13*1), Y1, Y1
	VADDPD 64(SI)(R13*1), Y2, Y2
	VADDPD 96(SI)(R13*1), Y3, Y3
	ADDQ   $4, AX
	JMP    gather_quad_arc

gather_quad_store:
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)
	VMOVUPD Y2, 64(DI)(R14*1)
	VMOVUPD Y3, 96(DI)(R14*1)
	ADDQ    $128, R14
	JMP     gather_quad

gather_pair:
	CMPQ   R14, R12
	JEQ    gather_next
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   BX, AX

gather_pair_arc:
	CMPQ   AX, CX
	JNE    gather_pair_neighbor
	VMULPD (DI)(R14*1), Y5, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(DI)(R14*1), Y5, Y4
	VADDPD Y4, Y1, Y1

gather_pair_neighbor:
	CMPQ   AX, DX
	JEQ    gather_pair_store
	MOVL   (AX), R13
	IMULQ  R12, R13
	ADDQ   R14, R13
	VADDPD (SI)(R13*1), Y0, Y0
	VADDPD 32(SI)(R13*1), Y1, Y1
	ADDQ   $4, AX
	JMP    gather_pair_arc

gather_pair_store:
	VMOVUPD Y0, (DI)(R14*1)
	VMOVUPD Y1, 32(DI)(R14*1)

gather_next:
	ADDQ $8, R8
	ADDQ R12, DI
	INCQ R10
	CMPQ R8, R11
	JNE  gather_row
	VZEROUPPER
	RET

// func distancesAVX2(cur, target, acc *float64, rows, st int)
//
// cur points at a row's first column and target at that row's entry;
// rows is at least 1. For every column, acc[j] += |cur[v][j] - target[v]|
// over the rows in ascending order: per chunk of 16 columns (four
// accumulators) and then, when the stride leaves 8 over, one chunk of 8.
TEXT ·distancesAVX2(SB), NOSPLIT, $0-40
	MOVQ cur+0(FP), DI
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
