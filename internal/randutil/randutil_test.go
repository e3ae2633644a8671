package randutil

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := true
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIsPure(t *testing.T) {
	parent := New(7)
	// Consume state from parent; split must not be affected.
	parent.Int63()
	parent.Int63()
	x := parent.Split("dfs").Int63()

	fresh := New(7)
	y := fresh.Split("dfs").Int63()
	if x != y {
		t.Fatal("Split depends on parent consumption state")
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	p := New(7)
	if p.Split("a").Int63() == p.Split("b").Int63() {
		t.Fatal("different labels produced identical first values")
	}
}

func TestPickN(t *testing.T) {
	s := New(3)
	got := s.PickN(10, 4)
	if len(got) != 4 {
		t.Fatalf("PickN returned %d values, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("PickN value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("PickN returned duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestPickNPanicsWhenKTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PickN(2,3) did not panic")
		}
	}()
	New(1).PickN(2, 3)
}

func TestJitterBounds(t *testing.T) {
	s := New(9)
	f := func(raw uint8) bool {
		v := 10.0
		frac := float64(raw%50) / 100 // 0..0.49
		got := s.Jitter(v, frac)
		return got >= v*(1-frac)-1e-9 && got <= v*(1+frac)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(123).Seed() != 123 {
		t.Fatal("Seed() mismatch")
	}
}

func TestDeriveSeedPureAndNonZero(t *testing.T) {
	if DeriveSeed(42, 3) != DeriveSeed(42, 3) {
		t.Fatal("DeriveSeed not a pure function")
	}
	f := func(seed int64, index uint16) bool {
		return DeriveSeed(seed, int(index)) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	// Neighboring indices and neighboring base seeds must land on
	// distinct seeds — each job of a batch gets its own stream.
	seen := map[int64]bool{}
	for base := int64(0); base < 8; base++ {
		for i := 0; i < 64; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("collision at base %d index %d (seed %d)", base, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSplitSeedMatchesSplit pins SplitSeed to the seed Split derives, and
// the stream seeded from it to Split's stream, including the zero-seed
// fallback (a seed equal to the label's FNV-1a hash derives 0).
func TestSplitSeedMatchesSplit(t *testing.T) {
	same := func(seed int64, label string) bool {
		split := New(seed).Split(label)
		derived := SplitSeed(seed, label)
		if derived != split.Seed() {
			return false
		}
		a := New(derived)
		for i := 0; i < 4; i++ {
			if a.Int63() != split.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"", "faults", "membership"} {
		h := fnv.New64a()
		h.Write([]byte(label))
		if fnv64a(label) != h.Sum64() {
			t.Fatalf("fnv64a(%q) = %x, hash/fnv gives %x", label, fnv64a(label), h.Sum64())
		}
		seed := int64(h.Sum64())
		if SplitSeed(seed, label) != 0x9e3779b97f4a7c {
			t.Fatalf("SplitSeed(%d, %q) = %d, want the zero-seed fallback", seed, label, SplitSeed(seed, label))
		}
		if !same(seed, label) {
			t.Fatalf("SplitSeed and Split disagree at the zero-seed fallback for %q", label)
		}
	}
}

// streamLabels is every label the simulator derives a stream with (DESIGN
// §11 names the site that owns each). A new consumer takes a new label.
var streamLabels = []string{
	"placement", "data-skew", "faults", "membership", "runtime-noise", "flexmap",
	"arrivals", "class", "size", "crash",
	"virtual20-interference", "multitenant-slow-picks", "wikipedia", "netflix", "teragen",
}

// TestStreamLabelsDistinct checks that, for any seed, every pair of
// labels derives distinct seeds and no label derives the seed unchanged.
func TestStreamLabelsDistinct(t *testing.T) {
	distinct := func(seed int64) bool {
		seen := make(map[int64]string, len(streamLabels))
		for _, label := range streamLabels {
			d := SplitSeed(seed, label)
			if d == seed {
				t.Logf("seed %d: label %q derives the seed unchanged", seed, label)
				return false
			}
			if other, dup := seen[d]; dup {
				t.Logf("seed %d: labels %q and %q derive the same seed", seed, other, label)
				return false
			}
			seen[d] = label
		}
		return true
	}
	if err := quick.Check(distinct, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if !distinct(0) || !distinct(42) {
		t.Fatal("labels collide at seed 0 or 42")
	}
}
