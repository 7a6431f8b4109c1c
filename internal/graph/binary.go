package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary format (TNG1) stores the canonical edge list delta-encoded
// with uvarints, which compresses social graphs to roughly 1.5–2.5 bytes
// per edge (versus ~12 in the text format). It is import-only: commands
// read it through ScanBinaryEdges (gen.StreamTNG1 wraps it) and write
// TNG2 instead.
//
// Layout: magic "TNG1" | uvarint n | uvarint m | m edge records |
// crc32(IEEE, everything before the footer) as 4 little-endian bytes.
// Edges are sorted canonically; each record is (uGap, v) where uGap is
// the U-delta from the previous edge and v is V-u (both uvarint), so runs
// of edges from the same node cost one byte for the U side. The CRC
// footer makes truncation and bit rot detectable: a cut-off stream used
// to be silently mis-parseable mid-varint, now every reader verifies the
// checksum and rejects the file with ErrBadFormat.

var binaryMagic = [4]byte{'T', 'N', 'G', '1'}

// ErrBadFormat is returned when binary input is not a valid graph file.
var ErrBadFormat = errors.New("graph: bad binary format")

// crcWriter forwards writes to w while accumulating a CRC32 (IEEE) of
// every byte written, so writers emit the integrity footer without
// buffering the stream.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.sum = crc32.Update(cw.sum, crc32.IEEETable, p[:n])
	return n, err
}

// crcReader wraps a buffered reader with the same running CRC32 on the
// read side. It implements io.ByteReader so binary.ReadUvarint can
// consume it directly.
type crcReader struct {
	r       *bufio.Reader
	sum     uint32
	scratch [1]byte
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err != nil {
		return 0, err
	}
	cr.scratch[0] = b
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, cr.scratch[:])
	return b, nil
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.sum = crc32.Update(cr.sum, crc32.IEEETable, p[:n])
	return n, err
}

// WriteBinary writes g in the compact binary format. It is the format's
// reference encoder, used to build test fixtures; no command writes
// TNG1.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("write binary magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		_, err := cw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(g.NumNodes())); err != nil {
		return fmt.Errorf("write binary header: %w", err)
	}
	if err := putUvarint(uint64(g.NumEdges())); err != nil {
		return fmt.Errorf("write binary header: %w", err)
	}
	prevU := NodeID(0)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if err := putUvarint(uint64(u - prevU)); err != nil {
				return fmt.Errorf("write binary edge: %w", err)
			}
			if err := putUvarint(uint64(v - u)); err != nil {
				return fmt.Errorf("write binary edge: %w", err)
			}
			prevU = u
		}
	}
	var footer [4]byte
	binary.LittleEndian.PutUint32(footer[:], cw.sum)
	if _, err := bw.Write(footer[:]); err != nil {
		return fmt.Errorf("write binary footer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush binary graph: %w", err)
	}
	return nil
}

// ScanBinaryEdges streams the canonical edges of a TNG1 stream to yield
// without building a graph, in O(1) memory — the only TNG1 reader. It
// returns the declared node and edge counts after verifying the CRC
// footer. Records must be strictly increasing in canonical (u, v) order
// (which is what WriteBinary produces); anything else — including a
// truncated stream or a checksum mismatch — is an ErrBadFormat. A yield
// error aborts the scan and is returned verbatim.
func ScanBinaryEdges(r io.Reader, yield func(u, v NodeID) error) (int, int64, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if magic != binaryMagic {
		return 0, 0, fmt.Errorf("%w: magic %q", ErrBadFormat, magic[:])
	}
	n64, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: node count: %v", ErrBadFormat, err)
	}
	m64, err := binary.ReadUvarint(cr)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: edge count: %v", ErrBadFormat, err)
	}
	const maxNodes = 1 << 31
	if n64 > maxNodes {
		return 0, 0, fmt.Errorf("%w: node count %d too large", ErrBadFormat, n64)
	}
	n := int(n64)
	if n64 > 1 && m64 > n64*(n64-1)/2 || n64 <= 1 && m64 > 0 {
		return 0, 0, fmt.Errorf("%w: edge count %d impossible for %d nodes", ErrBadFormat, m64, n64)
	}
	prevU := uint64(0)
	prevV := int64(-1)
	for i := uint64(0); i < m64; i++ {
		uGap, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: edge %d: %v", ErrBadFormat, i, err)
		}
		vGap, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: edge %d: %v", ErrBadFormat, i, err)
		}
		u := prevU + uGap
		v := u + vGap
		if vGap == 0 || v >= uint64(n) {
			return 0, 0, fmt.Errorf("%w: edge %d (%d,%d) out of range", ErrBadFormat, i, u, v)
		}
		if uGap > 0 {
			prevV = -1
		}
		if int64(v) <= prevV {
			return 0, 0, fmt.Errorf("%w: edge %d (%d,%d) out of canonical order", ErrBadFormat, i, u, v)
		}
		if err := yield(NodeID(u), NodeID(v)); err != nil {
			return 0, 0, err
		}
		prevU = u
		prevV = int64(v)
	}
	want := cr.sum
	var footer [4]byte
	if _, err := io.ReadFull(cr.r, footer[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: missing crc footer: %v", ErrBadFormat, err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != want {
		return 0, 0, fmt.Errorf("%w: crc mismatch %08x != %08x", ErrBadFormat, got, want)
	}
	return n, int64(m64), nil
}
