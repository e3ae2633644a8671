// Package randutil provides seeded, splittable pseudo-random sources so
// that every simulation in this repository is exactly reproducible: the
// same seed always yields the same cluster layout, interference pattern,
// and scheduling decisions.
package randutil

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Source is a convenience wrapper over math/rand with deterministic
// splitting: derived sources are seeded from the parent seed and a label,
// so adding a new consumer of randomness does not perturb existing ones.
// Its *rand.Rand runs over lfg, which yields exactly rand.NewSource(seed)'s
// stream but computes the first 273 draws from the seed alone and
// allocates and seeds the register only at the 274th draw or the first
// batch (Int63s, Int63sBelow).
type Source struct {
	seed int64
	*rand.Rand
	gen lfg
}

// New returns a deterministic source for the given seed.
func New(seed int64) *Source {
	s := &Source{seed: seed}
	s.gen.Seed(seed)
	s.Rand = rand.New(&s.gen)
	return s
}

// Int63s fills dst with the next len(dst) Int63 draws, the values that
// many Int63 calls would return, without an interface call per draw.
func (s *Source) Int63s(dst []int64) { s.gen.int63s(dst) }

// Draw is one Int63 draw that Int63sBelow reports: its offset among the
// call's draws, counting from 0, and its value.
type Draw struct {
	Off int
	Val int64
}

// Int63sBelow advances the stream by up to n Int63 draws, the values that
// many Int63 calls would return, and appends to dst, in stream order,
// each draw below bound. It stops after the draw that fills dst to
// capacity, so a caller can tighten the bound before drawing on, and
// returns dst and the number of draws taken, n unless it stopped early.
// dst must have spare capacity.
func (s *Source) Int63sBelow(dst []Draw, n int, bound int64) ([]Draw, int) {
	return s.gen.int63sBelow(dst, n, bound)
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() int64 { return s.seed }

// Split derives an independent source from this source's seed and a label.
// Splitting is a pure function of (seed, label): it does not consume state
// from the parent, so call order is irrelevant.
func (s *Source) Split(label string) *Source { return New(SplitSeed(s.seed, label)) }

// SplitSeed returns the seed Split derives from (seed, label), without
// seeding a source. A caller that only derives further seeds should
// derive with SplitSeed: a source is about 100 bytes until its 274th
// draw, when it allocates math/rand's ~4.9 KB register.
func SplitSeed(seed int64, label string) int64 {
	derived := seed ^ int64(fnv64a(label))
	// Avoid the degenerate all-zero seed.
	if derived == 0 {
		derived = 0x9e3779b97f4a7c
	}
	return derived
}

// fnv64a is the FNV-1a hash of hash/fnv's New64a, written out so that
// deriving a seed allocates nothing.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// DeriveSeed deterministically derives an independent seed from a base
// seed and a job (or scenario) index. It is the numeric counterpart of
// Split: a pure function of its inputs, so the i-th job of a batch gets
// the same RNG stream whether the batch runs serially or across many
// goroutines, and regardless of completion order.
func DeriveSeed(seed int64, index int) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(index))
	h.Write(buf[:])
	derived := int64(h.Sum64())
	// Avoid the degenerate all-zero seed.
	if derived == 0 {
		derived = 0x9e3779b97f4a7c
	}
	return derived
}

// PickN returns k distinct indices in [0,n) in random order.
// It panics if k > n.
func (s *Source) PickN(n, k int) []int {
	if k > n {
		panic("randutil: PickN k > n")
	}
	p := s.Rand.Perm(n)
	return p[:k]
}

// Jitter returns v scaled by a uniform factor in [1-f, 1+f].
func (s *Source) Jitter(v, f float64) float64 {
	return v * (1 + f*(2*s.Float64()-1))
}
