package jobs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/stats"
	"github.com/trustnet/trustnet/internal/walk"
)

// This file is the single home of the measurement-result fingerprints
// that trustnetd reports and perfbench checks its timed results
// against, so "identical" always means the same bits.

// digest is a little-endian FNV-1a accumulator over 64-bit words.
type digest struct {
	h   interface{ Write(p []byte) (int, error) }
	sum func() uint64
	buf [8]byte
}

// newDigest returns a ready FNV-1a digest.
func newDigest() *digest {
	h := fnv.New64a()
	return &digest{h: h, sum: h.Sum64}
}

// putU folds one 64-bit word.
func (d *digest) putU(u uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], u)
	d.h.Write(d.buf[:])
}

// putF folds one float64 at full bit width.
func (d *digest) putF(f float64) { d.putU(math.Float64bits(f)) }

// hex returns the digest as the canonical 16-hex-digit token.
func (d *digest) hex() string { return fmt.Sprintf("%016x", d.sum()) }

// MixingFingerprint digests every float bit of a mixing result: all
// per-source curves, the folded aggregates, and the sampled sources.
func MixingFingerprint(mr *walk.MixingResult) string {
	d := newDigest()
	for _, curve := range mr.Curves {
		for _, v := range curve {
			d.putF(v)
		}
	}
	for _, v := range mr.MeanTVD {
		d.putF(v)
	}
	for _, v := range mr.MaxTVD {
		d.putF(v)
	}
	for _, v := range mr.MinTVD {
		d.putF(v)
	}
	for _, s := range mr.Sources {
		d.putU(uint64(s))
	}
	return d.hex()
}

// ExpansionFingerprint digests an expansion result: both keyed
// summaries (key, count, min, mean, max — every float at full bit
// width), the max eccentricity, and the source count.
func ExpansionFingerprint(er *expansion.Result) string {
	d := newDigest()
	summarize := func(ks *stats.KeyedSummary) {
		for _, k := range ks.Keys() {
			s, _ := ks.Get(k)
			d.putU(uint64(k))
			d.putU(uint64(s.Count()))
			d.putF(s.Min())
			d.putF(s.Mean())
			d.putF(s.Max())
		}
	}
	summarize(er.NeighborsBySetSize)
	summarize(er.FactorBySetSize)
	d.putU(uint64(er.MaxEccentricity))
	d.putU(uint64(er.Sources))
	return d.hex()
}

// CorenessFingerprint digests a k-core decomposition: every node's
// coreness plus the degeneracy.
func CorenessFingerprint(dec *kcore.Decomposition) string {
	d := newDigest()
	for _, c := range dec.CorenessValues() {
		d.putU(uint64(c))
	}
	d.putU(uint64(dec.Degeneracy()))
	return d.hex()
}
