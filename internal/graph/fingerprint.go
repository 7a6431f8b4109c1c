package graph

import (
	"fmt"
	"hash/crc64"
)

// fingerprintTable is the CRC-64/ECMA table Fingerprint streams
// through; package-level so repeated fingerprints share it.
var fingerprintTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint returns the canonical digest of a view's topology: a
// CRC-64 (ECMA) streamed over the node count, edge count, and every
// node's degree and sorted neighbor list in ascending node order, each
// value as a 64-bit little-endian word. Because the View contract fixes
// node identity and neighbor order, the digest is identical for the
// CSR, the mmap-backed Mapped form and any zero-copy view of equal
// topology — it is the graph half of the
// measurement-artifact cache key, shared across every substrate form.
//
// The stream is buffered, so the cost is one sequential O(n+m) pass
// with no per-edge allocation.
func Fingerprint(v View) string {
	h := crc64.New(fingerprintTable)
	// Chunked writes keep crc64's slicing-by-8 fast path hot instead of
	// feeding it 8 bytes at a time.
	buf := make([]byte, 0, 1<<15)
	flush := func() {
		if len(buf) > 0 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	put := func(x uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = append(buf,
			byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
			byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	n := v.NumNodes()
	put(uint64(n))
	put(uint64(v.NumEdges()))
	var nbr []NodeID
	for u := 0; u < n; u++ {
		nbr = v.AppendNeighbors(NodeID(u), nbr[:0])
		put(uint64(len(nbr)))
		for _, w := range nbr {
			put(uint64(w))
		}
	}
	flush()
	return fmt.Sprintf("%016x", h.Sum64())
}
