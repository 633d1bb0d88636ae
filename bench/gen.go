package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"math/rand/v2"
)

// Every input the ring sees is made here from -seed: volume publisher
// keys, file sizes and contents, and the per-client operation streams.
// The program under test receives only the generated inputs; nothing in
// it ever sees the seed or a workload name.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the generator-side and reader-side content check (CRC-32C).
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// rngFor derives an independent PCG stream for one purpose of one run.
func rngFor(seed uint64, purpose string, idx int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("d2bench/%s/%d/%d", purpose, seed, idx)))
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(h[:8]), binary.LittleEndian.Uint64(h[8:16])))
}

// layoutSalt fixes where volumes land. Volume IDs — and so the ring arcs
// holding each volume — come from the publisher key and the name, and the
// five node IDs are fixed too, so placement is part of the workload, not
// of the seed: ten seeds measure the same layout with different file
// sizes, contents and operation order. (Seeding the keys was tried first;
// with five fixed node IDs owning 55 %, 24 %, 14 %, 7 % and 1 % of the key
// space, a seed could put all eight volumes on one node and another
// spread them over four, and throughput followed.) This salt was picked
// once, so that the eight walk volumes' primaries fall on four nodes.
const layoutSalt = 7

// volumeKey is the publisher key of the named volume.
func volumeKey(name string) ed25519.PrivateKey {
	h := sha256.Sum256([]byte(fmt.Sprintf("d2bench/volume-key/%d/%s", layoutSalt, name)))
	return ed25519.NewKeyFromSeed(h[:])
}

func volumeName(i int) string { return fmt.Sprintf("vol-%d", i) }

// fill writes pseudo-random bytes from r into b.
func fill(r *rand.Rand, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.Uint64())
		copy(b[i:], tail[:])
	}
}

// logUniform draws a size in [lo, hi] with a uniform logarithm, so every
// octave of file size is equally likely.
func logUniform(r *rand.Rand, lo, hi int) int {
	x := math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	n := int(x)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// fileSpec is one generated file: where it lives and what a correct read
// must return.
type fileSpec struct {
	vol  int
	path string
	size int
	sum  uint32
}

// content regenerates the file's bytes (a pure function of the spec's
// own stream, so readers never need the writer's buffer).
func fileContent(seed uint64, purpose string, idx, size int) []byte {
	b := make([]byte, size)
	fill(rngFor(seed, purpose, idx), b)
	return b
}

// planHash accumulates the operation plan a seed produces, so the
// determinism test can compare two generators without running a ring.
type planHash struct{ h hash.Hash }

func newPlanHash() *planHash { return &planHash{h: sha256.New()} }

func (p *planHash) add(parts ...any) {
	fmt.Fprintln(p.h, parts...)
}

func (p *planHash) sum() string { return fmt.Sprintf("%x", p.h.Sum(nil)[:12]) }

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF (math/rand/v2's Zipf needs s > 1 and an unbounded
// tail; a table is exact for a few hundred ranks).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
