package kernels

import "github.com/trustnet/trustnet/internal/graph"

// useVector selects the dense step's AVX2 bodies (dense_amd64.s), once
// at package init: the CPU must report AVX2, and the operating system
// must save the YMM registers across context switches.
var useVector = hasAVX2()

// hasAVX2 reads CPUID leaves 1 and 7 and XCR0: AVX and OSXSAVE in leaf
// 1's ECX, SSE and AVX state enabled in XCR0, and AVX2 in leaf 7's EBX.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseAndAVXState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&sseAndAVXState != sseAndAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func shareRowsAVX2(mass, shr *float64, offsets *int64, rows, st int, lazy bool)

//go:noescape
func stepRowsAVX2(mass, in, out *float64, offsets *int64, adj *graph.NodeID, target, acc *float64, u, rows, st int, lazy bool)

//go:noescape
func distancesAVX2(mass, target, acc *float64, rows, st int)
