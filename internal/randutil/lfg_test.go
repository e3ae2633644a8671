package randutil

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// edgeSeeds are the seeds at math/rand's seed reduction boundaries: 0 and
// the multiples of 2³¹−1 reduce to 0 and take the zero-seed fallback,
// negatives are shifted up, and the int64 extremes reduce last.
var edgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 2 * lehmerM, -3 * lehmerM,
	lehmerM << 32, math.MinInt64, math.MaxInt64, zeroSeed, -zeroSeed, 1 << 31, -1 << 31,
}

// batchLens are the Int63s and Int63sBelow lengths at the seeding
// boundaries (273 draws seed tap slots, 334 seed feed slots, 607 wrap the
// register) and past them.
var batchLens = []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 608, 10000}

// belowBounds are the Int63sBelow bounds replayOps picks from: every draw
// but MaxInt64, none, about half, one in 2⁸ and one in 2¹² of the draws,
// and -1, which checkBelow replaces with the middle draw's value.
var belowBounds = []int64{math.MaxInt64, 0, 1 << 62, 1 << 55, 1 << 51, -1}

// opCount is the number of operations replayOps decodes.
const opCount = 12

// replayOps decodes ops as a script of draws, two bytes an operation (an
// opcode and an argument), and runs it on New(seed) and on
// rand.New(rand.NewSource(seed)). It reports the first draw that differs.
func replayOps(seed int64, ops []byte) error {
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < len(ops); i += 2 {
		op, arg := int(ops[i])%opCount, 0
		if i+1 < len(ops) {
			arg = int(ops[i+1])
		}
		var g, w any
		switch op {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			n := batchLens[arg%len(batchLens)]
			dst := make([]int64, n)
			got.Int63s(dst)
			ref := make([]int64, n)
			for j := range ref {
				ref[j] = want.Int63()
			}
			if !slices.Equal(dst, ref) {
				return fmt.Errorf("op %d: Int63s(%d) differs from %d Int63 draws", i/2, n, n)
			}
			continue
		case 3:
			g, w = got.Float64(), want.Float64()
		case 4:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 5:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 6:
			g, w = got.Intn(arg+1), want.Intn(arg+1)
		case 7:
			if !slices.Equal(got.Perm(arg%64), want.Perm(arg%64)) {
				return fmt.Errorf("op %d: Perm(%d) differs", i/2, arg%64)
			}
			continue
		case 8:
			reseed := DeriveSeed(seed, arg)
			if arg < len(edgeSeeds) {
				reseed = edgeSeeds[arg]
			}
			got.Rand.Seed(reseed)
			want.Seed(reseed)
			continue
		case 9:
			g, w = got.Int63n(int64(arg)<<40+1), want.Int63n(int64(arg)<<40+1)
		case 10:
			g, w = got.Int31(), want.Int31()
		case 11:
			n := batchLens[arg%len(batchLens)]
			bound := belowBounds[arg/len(batchLens)%len(belowBounds)]
			if err := checkBelow(got, want, n, bound, 1+arg%3); err != nil {
				return fmt.Errorf("op %d: %v", i/2, err)
			}
			continue
		}
		if g != w {
			return fmt.Errorf("op %d (code %d, arg %d): got %v, want %v", i/2, op, arg, g, w)
		}
	}
	return nil
}

// checkBelow draws n values from got with Int63sBelow into a buffer of
// size buf, calling again after each early stop, and n from want with
// Int63. Every reported draw must be want's at its offset, every draw not
// reported at least bound, each call must stop only right after the draw
// that fills the buffer, and the next draw must match. A negative bound
// stands for the middle draw's value, so that one draw equals the bound.
func checkBelow(got *Source, want *rand.Rand, n int, bound int64, buf int) error {
	ref := make([]int64, n)
	for j := range ref {
		ref[j] = want.Int63()
	}
	if bound < 0 && n > 0 {
		bound = ref[n/2]
	}
	reported := make([]bool, n)
	hits := make([]Draw, 0, buf)
	for taken := 0; taken < n; {
		var k int
		hits, k = got.Int63sBelow(hits[:0], n-taken, bound)
		switch {
		case k < 1 || k > n-taken:
			return fmt.Errorf("Int63sBelow(%d, %d) took %d draws", n-taken, bound, k)
		case len(hits) < buf && k != n-taken:
			return fmt.Errorf("Int63sBelow(%d, %d) stopped after %d draws with %d of %d hits", n-taken, bound, k, len(hits), buf)
		case len(hits) == buf && hits[buf-1].Off != k-1:
			return fmt.Errorf("Int63sBelow(%d, %d) filled its buffer at draw %d, stopped after %d", n-taken, bound, hits[buf-1].Off, k)
		}
		prev := -1
		for _, h := range hits {
			if h.Off <= prev || h.Off >= k || h.Val != ref[taken+h.Off] || h.Val >= bound {
				return fmt.Errorf("Int63sBelow(%d, %d) reported %+v after offset %d", n-taken, bound, h, prev)
			}
			prev = h.Off
			reported[taken+h.Off] = true
		}
		taken += k
	}
	for j, r := range ref {
		if !reported[j] && r < bound {
			return fmt.Errorf("Int63sBelow(%d, %d) skipped draw %d, %d", n, bound, j, r)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		return fmt.Errorf("draw after Int63sBelow(%d, %d): got %d, want %d", n, bound, g, w)
	}
	return nil
}

// opScript calls every operation and every batch length, reseeding
// mid-stream once per batch length, with an Int63s and an Int63sBelow
// batch after each operation so batches start at many register phases.
// The Int63sBelow argument runs through every bound and buffer size.
func opScript() []byte {
	var ops []byte
	for l := range batchLens {
		for op := 0; op < opCount; op++ {
			ops = append(ops, byte(op), byte(7*l+op), 2, byte(l), 11, byte(l+len(batchLens)*op))
		}
	}
	return ops
}

// TestSourceMatchesMathRand checks that Source draws exactly what
// rand.New(rand.NewSource(seed)) draws: every method, batches across the
// lazy-seeding boundaries, and reseeding mid-stream.
func TestSourceMatchesMathRand(t *testing.T) {
	script := opScript()
	for _, seed := range edgeSeeds {
		if err := replayOps(seed, script); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for i := 0; i < 300; i++ {
		seed := DeriveSeed(42, i)
		single, batch, want := New(seed), New(seed), rand.New(rand.NewSource(seed))
		got := make([]int64, 3000)
		batch.Int63s(got[:i])
		batch.Int63s(got[i:])
		for k := range got {
			w := want.Int63()
			if s := single.Int63(); s != w || got[k] != w {
				t.Fatalf("seed %d draw %d: Int63 %d, Int63s %d, math/rand %d", seed, k+1, s, got[k], w)
			}
		}
		if i%30 == 0 {
			if err := replayOps(seed, script); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// FuzzSourceMatchesMathRand replays arbitrary operation scripts (see
// replayOps) from arbitrary seeds against math/rand.
func FuzzSourceMatchesMathRand(f *testing.F) {
	script := opScript()
	for _, seed := range edgeSeeds {
		f.Add(seed, script)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if err := replayOps(seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInt63sBelowNeedsCapacity checks that a full buffer, which could
// not stop a call at its first hit, is refused.
func TestInt63sBelowNeedsCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63sBelow into a full buffer did not panic")
		}
	}()
	New(1).Int63sBelow(make([]Draw, 2), 10, math.MaxInt64)
}

// TestShortStreamAllocatesNoRegister checks that the register is lazy: a
// source that draws at most 273 values allocates only itself and its
// rand.Rand, and draw 274 allocates the register, once.
func TestShortStreamAllocatesNoRegister(t *testing.T) {
	var s *Source
	draws := func(n int) func() {
		return func() {
			s = New(42)
			for range n {
				s.Int63()
			}
		}
	}
	base := testing.AllocsPerRun(20, draws(0))
	if got := testing.AllocsPerRun(20, draws(lfgTap)); got != base {
		t.Fatalf("New plus %d draws: %v allocations, want New's %v", lfgTap, got, base)
	}
	if s.gen.vec != nil {
		t.Fatalf("register allocated after %d draws", lfgTap)
	}
	if got := testing.AllocsPerRun(20, draws(lfgTap+1)); got != base+1 {
		t.Fatalf("New plus %d draws: %v allocations, want %v", lfgTap+1, got, base+1)
	}
	if s.gen.vec == nil {
		t.Fatalf("no register after %d draws", lfgTap+1)
	}
	if got := testing.AllocsPerRun(20, draws(lfgLen+1)); got != base+1 {
		t.Fatalf("New plus %d draws: %v allocations, want %v", lfgLen+1, got, base+1)
	}
}

// BenchmarkNewOneDraw measures a stream that draws once, like
// workload.Generate's class and size streams or a node's crash stream.
func BenchmarkNewOneDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += New(int64(i) + 1).Int63()
	}
}

// sink keeps benchmarked draws live.
var sink int64

// BenchmarkInt63s measures batch draws in 10,000-member placement scans.
func BenchmarkInt63s(b *testing.B) {
	s := New(1)
	dst := make([]int64, 10000)
	b.SetBytes(8 * int64(len(dst)))
	for i := 0; i < b.N; i++ {
		s.Int63s(dst)
	}
}

// BenchmarkInt63sBelow measures the filtered scan of a 10,000-member
// placement group, where about one draw in 2¹³ is below the bound.
func BenchmarkInt63sBelow(b *testing.B) {
	s := New(1)
	const n = 10000
	hits := make([]Draw, 0, 64)
	b.SetBytes(8 * n)
	for i := 0; i < b.N; i++ {
		hits, _ = s.Int63sBelow(hits[:0], n, 1<<50)
	}
}
