package speculate

import (
	"math"
	"slices"
	"sort"
	"testing"

	"flexmap/internal/randutil"
)

// sortedThreshold is the slow-task threshold by a full sort.
func sortedThreshold(rates []float64) float64 {
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	idx := int(slowTaskPercentile * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// probe runs one threshold selection over rates, and checks it against
// the sorted reference and that it left the rates unpermuted.
func probe(t *testing.T, l *LATE, rates []float64) float64 {
	t.Helper()
	l.rates = append(l.rates[:0], rates...)
	got := l.slowThreshold()
	if want := sortedThreshold(rates); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("threshold of %v (last %v, set %v) = %v, want %v", rates, l.threshold, l.hasThreshold, got, want)
	}
	if !slices.Equal(l.rates, rates) {
		t.Fatalf("the selection permuted the rates: %v, was %v", l.rates, rates)
	}
	return got
}

// TestSlowThresholdBand pins each path of the band: pool is what the
// selection ran over, the in-band rates on a hit and every rate on a
// miss.
func TestSlowThresholdBand(t *testing.T) {
	// The percentile index of 8 rates is 2.
	spread := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	// The band's edges around 3, computed at run time as slowThreshold
	// computes them: a constant expression may round differently.
	three := 3.0
	lo, hi := three*(1-thresholdBand), three*(1+thresholdBand)
	for _, c := range []struct {
		name     string
		last     float64 // previous threshold; 0 with noLast means none
		noLast   bool
		rates    []float64
		wantPool int
	}{
		{"no previous threshold", 0, true, spread, 8},
		{"hit", 3, false, spread, 1},
		{"hit off-centre", 3.05, false, []float64{1, 2, 3, 3.01, 3.1, 6, 7, 8}, 3},
		{"miss below", 6, false, spread, 8},
		{"miss above", 1, false, spread, 8},
		{"band empty", 3.5, false, spread, 8},
		{"duplicates on the lower edge", 3, false, []float64{1, lo, lo, 3, 5, 6, 7, 8}, 3},
		{"duplicates on the upper edge", 3, false, []float64{1, 2, hi, hi, hi, 6, 7, 8}, 3},
		{"all rates equal", 4, false, []float64{4, 4, 4, 4, 4, 4, 4, 4}, 8},
		{"all rates equal, missed", 2, false, []float64{4, 4, 4, 4, 4, 4, 4, 4}, 8},
		{"one rate", 4, false, []float64{4}, 1},
		{"one rate, no previous threshold", 0, true, []float64{4}, 1},
		{"zero threshold", 0, false, []float64{0, 0, 0, 0, 1, 2, 3, 4}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := &LATE{threshold: c.last, hasThreshold: !c.noLast}
			probe(t, l, c.rates)
			if len(l.pool) != c.wantPool {
				t.Fatalf("selected over %d rates, want %d", len(l.pool), c.wantPool)
			}
		})
	}
}

// TestSlowThresholdMatchesSort drives one policy through drifting rate
// sets, with jumps, heavy duplication and rates on the band's edges, and
// requires every threshold to equal the sorted reference and the answer
// of a policy whose band state is reset before every call.
func TestSlowThresholdMatchesSort(t *testing.T) {
	rng := randutil.New(17)
	l := &LATE{}
	hits := 0
	var rates []float64
	for step := 0; step < 3000; step++ {
		switch {
		case step%97 == 0 || len(rates) == 0:
			// A jump: a fresh set on a new scale.
			n := 1 + rng.Intn(80)
			scale := math.Pow(10, float64(rng.Intn(7)-3))
			rates = rates[:0]
			for i := 0; i < n; i++ {
				rates = append(rates, scale*float64(1+rng.Intn(1+rng.Intn(n))))
			}
		default:
			// A drift: each rate moves a little, a few join or leave.
			for i := range rates {
				rates[i] *= 1 + (rng.Float64()-0.5)*0.01
			}
			if rng.Intn(3) == 0 {
				rates = append(rates, rates[rng.Intn(len(rates))])
			}
			if rng.Intn(3) == 0 && len(rates) > 1 {
				i := rng.Intn(len(rates))
				rates = append(rates[:i], rates[i+1:]...)
			}
			if l.hasThreshold && rng.Intn(4) == 0 {
				// Rates exactly on the band's edges.
				rates[rng.Intn(len(rates))] = l.threshold * (1 - thresholdBand)
				rates[rng.Intn(len(rates))] = l.threshold * (1 + thresholdBand)
			}
		}
		got := probe(t, l, rates)
		if len(l.pool) < len(rates) {
			hits++
		}
		if fresh := probe(t, &LATE{}, rates); math.Float64bits(fresh) != math.Float64bits(got) {
			t.Fatalf("step %d: %v with band state, %v reset", step, got, fresh)
		}
	}
	if hits < 1000 {
		t.Fatalf("only %d of 3000 probes selected within the band", hits)
	}
}
