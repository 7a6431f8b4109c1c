package main

import (
	"fmt"
	"math/rand"
)

// The op sequences below are pure functions of the workload seed and
// the op count: two runs with the same arguments issue the same ops in
// the same order, whichever of the two clients takes each one.

// splitmix64 is one step of the SplitMix64 mixer, used to derive
// independent streams from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives the seed of stream k from the workload seed.
func streamSeed(seed int64, k uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(k)) >> 1)
}

// seedBase is the first measurement seed of a run. Op i is measured
// under seedBase+i, so no two ops of one run share a seed (and so a
// cache slot). The base keeps 40 bits of the mixed workload seed and
// stays at or above 2^20, clear of warmupSeed and of zero, which the
// daemon would read as "default".
func seedBase(seed int64) int64 {
	return int64(splitmix64(uint64(seed))>>24) + 1<<20
}

// warmupSeed is the measurement seed of every set-up's warm-up. It is
// the same for every workload seed, so set-up time does not move with
// it (the SLEM iteration count of a stand-in varies 2x with the seed).
const warmupSeed = 1

// paperOp is one report: all four measurements of one stand-in under a
// seed no other op of the run uses.
type paperOp struct {
	Dataset int
	Seed    int64
}

// paperOps returns n ops (n a multiple of datasets) as whole passes
// over the stand-ins, each pass in its own seeded order. Whole passes
// give every run the same mix of stand-ins, so its op costs come from
// one fixed mixture.
func paperOps(seed int64, n, datasets int) []paperOp {
	rng := rand.New(rand.NewSource(streamSeed(seed, 1)))
	base := seedBase(seed)
	ops := make([]paperOp, 0, n)
	for len(ops) < n {
		for _, d := range rng.Perm(datasets) {
			if len(ops) == n {
				break
			}
			ops = append(ops, paperOp{Dataset: d, Seed: base + int64(len(ops))})
		}
	}
	return ops
}

// Graph families of the large workload.
const (
	familyBA = "ba"
	familyPA = "clustered-pa"
)

// largeOp is one arriving graph: its family, its generator and
// measurement seed, and the registry name it is generated under.
type largeOp struct {
	Family string
	Seed   int64
	Name   string
}

// largeOps returns n ops alternating between the two families, each
// with a fresh seed.
func largeOps(seed int64, n int) []largeOp {
	base := seedBase(seed)
	ops := make([]largeOp, n)
	for i := range ops {
		fam := familyBA
		if i%2 == 1 {
			fam = familyPA
		}
		ops[i] = largeOp{Family: fam, Seed: base + int64(i), Name: fmt.Sprintf("large-%d", i)}
	}
	return ops
}

// replayOps returns n indices into the keys cached during set-up: one
// seeded permutation of all keys, repeated, so every key is exactly
// `keys` ops after its previous request (see replayWorkload.gate).
func replayOps(seed int64, n, keys int) []int {
	perm := rand.New(rand.NewSource(streamSeed(seed, 2))).Perm(keys)
	ops := make([]int, n)
	for i := range ops {
		ops[i] = perm[i%keys]
	}
	return ops
}
