package workload

import (
	"fmt"
	"reflect"
	"testing"

	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// referenceGenerate is Generate as it was before seeds were derived
// without seeding: a root source seeded only to Split the arrival
// stream, and per job a root source seeded only to Split "class" and
// "size". Patterns and classes are valid here, so it skips validation.
func referenceGenerate(seed int64, p Pattern, classes []Class) []Arrival {
	p = p.withDefaults()
	var totalW float64
	for _, c := range classes {
		totalW += c.Weight
	}
	times := randutil.New(seed).Split("arrivals")
	out := make([]Arrival, p.Jobs)
	var t float64
	for i := range out {
		t = nextArrival(t, p, times)
		jr := randutil.New(randutil.DeriveSeed(seed, i))
		ci := pickClass(jr.Split("class").Float64()*totalW, classes)
		c := classes[ci]
		size := c.MinBytes
		if span := c.MaxBytes - c.MinBytes; span > 0 {
			size += jr.Split("size").Int63n(span + 1)
		}
		out[i] = Arrival{Index: i, At: sim.Time(t), Class: ci, InputBytes: size, Seed: randutil.DeriveSeed(seed, i)}
	}
	return out
}

// TestGenerateMatchesReference compares Generate with the reference
// arrival for arrival, over Poisson and burst patterns, a class mix with
// a fixed-size class (no "size" draw), and three seeds.
func TestGenerateMatchesReference(t *testing.T) {
	patterns := map[string]Pattern{
		"poisson": {Jobs: 60, Rate: 0.5},
		"burst":   {Jobs: 60, Rate: 0.2, Process: Burst},
		"single":  {Jobs: 1, Rate: 2},
	}
	mixes := map[string][]Class{
		"mix":   testClasses(),
		"fixed": {{Weight: 2, MinBytes: 64 << 20, MaxBytes: 64 << 20}, {Weight: 1, MinBytes: 1 << 20, MaxBytes: 9 << 20}},
	}
	for _, pn := range []string{"poisson", "burst", "single"} {
		for _, mn := range []string{"mix", "fixed"} {
			for _, seed := range []int64{0, 42, -7} {
				name := fmt.Sprintf("%s/%s/seed%d", pn, mn, seed)
				got, err := Generate(seed, patterns[pn], mixes[mn])
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want := referenceGenerate(seed, patterns[pn], mixes[mn]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Generate differs from the reference:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}
