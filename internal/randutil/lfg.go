package randutil

import "math/rand"

// lfg is math/rand's seeded generator, reproduced draw for draw: the
// additive lagged Fibonacci generator of Mitchell and Reeds over a
// 607-word register with tap 273, seeded exactly as rand.NewSource seeds
// it. The Go 1 compatibility promise fixes that stream as a function of
// the seed, so every rand.Rand method over an lfg returns what it returns
// over rand.NewSource.
//
// Two things differ, none visible in the stream. The register is lazy:
// slot i's initial word is chain(x0, i) ^ cooked[i], and chain reaches
// any point of the seed's Lehmer chain in O(1) (lehmerPow). Draws 1–273
// read only initial words (feed slot 334−k and tap slot 607−k, which no
// earlier draw wrote), so they are computed from the seed alone, and the
// register is allocated, seeded and replayed at draw 274, or before a
// batch's first draw. A stream that draws a handful of values never pays
// for it. And int63s and int63sBelow step a batch without an interface
// call per draw, in runs that end only where tap or feed wraps.
type lfg struct {
	tap, feed int
	// x0 is the reduced seed, the Lehmer chain's start.
	x0 uint64
	// vec is the register, nil until the first draw that reads a slot an
	// earlier draw wrote.
	vec *[lfgLen]int64
}

const (
	lfgLen  = 607
	lfgTap  = 273
	lfgFill = lfgLen - lfgTap // draws after which every slot is seeded
	lfgMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// zeroSeed is what math/rand seeds in place of a seed ≡ 0 mod lehmerM.
	zeroSeed = 89482311
)

var (
	// lehmerPow[n] is 48271ⁿ mod 2³¹−1, for every chain step a full
	// seeding takes: 20 discarded, then 3 per slot.
	lehmerPow [21 + 3*lfgLen]uint32
	// cooked is math/rand's rngCooked table, the per-slot constant XORed
	// into each seeded word.
	cooked [lfgLen]int64
)

// init builds lehmerPow and recovers cooked from a real math/rand
// source, so math/rand stays the one definition of the stream. For draws
// k ≤ 334 of a fresh register v, draw k adds tap slot 607−k into feed
// slot 334−k. A tap slot is unseeded for k ≤ 273 and holds draw k−273
// after; from draw 335 the feed slot 941−k is an unseeded word. So the
// first 607 draws o[1..607] of seed 1 give v[607−k] = o[k+334] − o[k+61]
// for k ≤ 273, then v[334−k] = o[k] − (v[607−k] or o[k−273]), and
// cooked[i] = v[i] ^ chain(1, i).
func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = uint32(uint64(lehmerPow[n-1]) * lehmerA % lehmerM)
	}
	ref := rand.NewSource(1).(rand.Source64)
	var o [lfgLen + 1]int64 // o[k] is the k-th draw, counting from 1
	for k := 1; k <= lfgLen; k++ {
		o[k] = int64(ref.Uint64())
	}
	v := &cooked
	for k := 1; k <= lfgTap; k++ {
		v[lfgLen-k] = o[k+lfgFill] - o[k+lfgFill-lfgTap]
	}
	for k := 1; k <= lfgFill; k++ {
		if k <= lfgTap {
			v[lfgFill-k] = o[k] - v[lfgLen-k]
		} else {
			v[lfgFill-k] = o[k] - o[k-lfgTap]
		}
	}
	for i := range v {
		v[i] ^= chain(1, i)
	}
}

// chain returns the Lehmer bits math/rand's seeding XORs into slot i:
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, where xₙ = x0·48271ⁿ mod 2³¹−1.
func chain(x0 uint64, i int) int64 {
	n := 21 + 3*i
	x1 := int64(x0 * uint64(lehmerPow[n]) % lehmerM)
	x2 := int64(x0 * uint64(lehmerPow[n+1]) % lehmerM)
	x3 := int64(x0 * uint64(lehmerPow[n+2]) % lehmerM)
	return x1<<40 ^ x2<<20 ^ x3
}

// Seed resets the generator to the stream rand.NewSource(seed) yields.
// A register already allocated is kept and seeded in full.
func (g *lfg) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	g.tap, g.feed, g.x0 = 0, lfgFill, uint64(seed)
	if g.vec != nil {
		g.seedRegister()
	}
}

// Int63 returns the next draw's low 63 bits.
func (g *lfg) Int63() int64 { return int64(g.Uint64() & lfgMask) }

// Uint64 returns the next draw.
func (g *lfg) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += lfgLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += lfgLen
	}
	if g.vec == nil {
		if g.tap >= lfgFill {
			// Draw 607−tap ≤ 273 reads two seed words and writes a slot
			// no draw before 274 reads.
			return uint64(g.seedWord(g.feed) + g.seedWord(g.tap))
		}
		g.grow(lfgTap)
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// grow allocates the register, seeds every slot and replays the
// stream's first n draws into it, n ≤ 273, and leaves tap and feed where
// they were. Draw 274, whose tap slot draw 1 wrote, grows it after
// stepping tap and feed to its slots; a batch grows it before its first
// draw.
func (g *lfg) grow(n int) {
	tap, feed := g.tap, g.feed
	g.vec = new([lfgLen]int64)
	g.seedRegister()
	g.tap, g.feed = 0, lfgFill
	for range n {
		g.Uint64()
	}
	g.tap, g.feed = tap, feed
}

// seedWord returns slot i's initial word.
func (g *lfg) seedWord(i int) int64 { return chain(g.x0, i) ^ cooked[i] }

// seedRegister writes every slot's initial word.
func (g *lfg) seedRegister() {
	for i := range g.vec {
		g.vec[i] = g.seedWord(i)
	}
}

// run returns the register slots of the stream's next draws, at most n
// of them and none past a wrap of tap or feed: the run's j-th draw adds
// t[len(t)-1-j] into f[len(t)-1-j]. A batch steps them itself and takes
// them with skip. The register is allocated first if need be; before
// draw 274 feed is 334 minus the draws taken.
func (g *lfg) run(n int) (t, f []int64) {
	if g.vec == nil {
		g.grow(lfgFill - g.feed)
	}
	if g.tap == 0 {
		g.tap = lfgLen
	}
	if g.feed == 0 {
		g.feed = lfgLen
	}
	m := min(g.tap, g.feed, n)
	return g.vec[g.tap-m : g.tap], g.vec[g.feed-m : g.feed]
}

// skip takes the first m draws of the current run.
func (g *lfg) skip(m int) { g.tap, g.feed = g.tap-m, g.feed-m }

// int63s fills dst with the next len(dst) Int63 draws.
func (g *lfg) int63s(dst []int64) {
	for len(dst) > 0 {
		t, f := g.run(len(dst))
		f, d := f[:len(t)], dst[:len(t)]
		for i := range d {
			k := len(d) - 1 - i
			x := f[k] + t[k]
			f[k] = x
			d[i] = x & lfgMask
		}
		g.skip(len(t))
		dst = dst[len(t):]
	}
}

// int63sBelow advances the stream by up to n Int63 draws and appends to
// dst each draw below bound, with its offset among them. It stops after
// the draw that fills dst to capacity and returns dst and the number of
// draws taken. A draw that misses the bound stores nothing.
func (g *lfg) int63sBelow(dst []Draw, n int, bound int64) ([]Draw, int) {
	out := dst[len(dst):cap(dst)]
	if len(out) == 0 {
		panic("randutil: Int63sBelow needs spare capacity in dst")
	}
	i, h := 0, 0
	for i < n {
		t, f := g.run(n - i)
		f = f[:len(t)]
		for k := len(t) - 1; k >= 0; k-- {
			x := f[k] + t[k]
			f[k] = x
			if x &= lfgMask; x < bound {
				j := len(t) - k // the run's draws taken
				out[h] = Draw{i + j - 1, x}
				if h++; h == len(out) {
					g.skip(j)
					return dst[:len(dst)+h], i + j
				}
			}
		}
		g.skip(len(t))
		i += len(t)
	}
	return dst[:len(dst)+h], i
}
