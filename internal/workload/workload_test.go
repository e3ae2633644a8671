package workload

import (
	"math"
	"reflect"
	"testing"

	"flexmap/internal/sim"
)

func testClasses() []Class {
	return []Class{
		{Weight: 3, MinBytes: 64 << 20, MaxBytes: 256 << 20},
		{Weight: 1, MinBytes: 512 << 20, MaxBytes: 1 << 30},
	}
}

// TestArrivalsSortedAndReplayable is the core property test: for every
// process and seed, times are non-decreasing, every drawn field is in
// range, and regeneration reproduces the sequence exactly.
func TestArrivalsSortedAndReplayable(t *testing.T) {
	patterns := map[string]Pattern{
		"poisson": {Jobs: 500, Rate: 0.5},
		"burst":   {Jobs: 500, Rate: 0.5, Process: Burst},
	}
	classes := testClasses()
	for name, p := range patterns {
		p := p
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 9991} {
				got, err := Generate(seed, p, classes)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(got) != p.Jobs {
					t.Fatalf("seed %d: %d arrivals, want %d", seed, len(got), p.Jobs)
				}
				var prev sim.Time
				for i, a := range got {
					if a.Index != i {
						t.Fatalf("seed %d: arrival %d has Index %d", seed, i, a.Index)
					}
					if a.At < prev {
						t.Fatalf("seed %d: arrival %d at %v before predecessor %v", seed, i, a.At, prev)
					}
					prev = a.At
					c := classes[a.Class]
					if a.InputBytes < c.MinBytes || a.InputBytes > c.MaxBytes {
						t.Fatalf("seed %d: arrival %d size %d outside class range [%d,%d]",
							seed, i, a.InputBytes, c.MinBytes, c.MaxBytes)
					}
				}
				again, err := Generate(seed, p, classes)
				if err != nil {
					t.Fatalf("seed %d regenerate: %v", seed, err)
				}
				if !reflect.DeepEqual(got, again) {
					t.Fatalf("seed %d: regeneration differs", seed)
				}
			}
		})
	}
}

// TestDifferentSeedsDiffer guards against a constant generator passing
// the replay test trivially.
func TestDifferentSeedsDiffer(t *testing.T) {
	p := Pattern{Jobs: 50, Rate: 1}
	a, err := Generate(1, p, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(2, p, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 generated identical workloads")
	}
}

// TestPoissonRateMatches checks the empirical rate over a long horizon
// stays within tolerance of the configured one.
func TestPoissonRateMatches(t *testing.T) {
	const jobs, rate = 20000, 2.0
	got, err := Generate(7, Pattern{Jobs: jobs, Rate: rate}, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	span := float64(got[jobs-1].At)
	emp := float64(jobs-1) / span
	if math.Abs(emp-rate)/rate > 0.03 {
		t.Fatalf("empirical rate %.4f, configured %v (%.1f%% off)", emp, rate, 100*math.Abs(emp-rate)/rate)
	}
}

// TestBurstRateMatches checks the bursty process still delivers the
// configured long-run mean rate, that arrivals concentrate in the
// on-phase (the burst actually bursts), and that the off-phase runs at
// Rate·(1−burstDuty·burstFactor)/(1−burstDuty) = Rate/4.
func TestBurstRateMatches(t *testing.T) {
	const jobs, rate = 20000, 1.0
	got, err := Generate(11, Pattern{Jobs: jobs, Rate: rate, Process: Burst}, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	span := float64(got[jobs-1].At)
	emp := float64(jobs-1) / span
	if math.Abs(emp-rate)/rate > 0.03 {
		t.Fatalf("empirical mean rate %.4f, configured %v", emp, rate)
	}
	inBurst := 0
	for _, a := range got {
		if math.Mod(float64(a.At), float64(burstPeriod)) < burstDuty*float64(burstPeriod) {
			inBurst++
		}
	}
	// Expected on-phase share = duty·factor = 0.8.
	share := float64(inBurst) / float64(jobs)
	if math.Abs(share-burstDuty*burstFactor) > 0.02 {
		t.Fatalf("%.3f of arrivals in the on-phase, want ≈%v", share, burstDuty*burstFactor)
	}
	off := float64(jobs-inBurst) / (span * (1 - burstDuty))
	if math.Abs(off-rate/4)/(rate/4) > 0.05 {
		t.Fatalf("empirical off-phase rate %.4f, want ≈%v", off, rate/4)
	}
}

// TestClassMixMatchesWeights checks class draw frequencies track weights.
func TestClassMixMatchesWeights(t *testing.T) {
	const jobs = 20000
	got, err := Generate(13, Pattern{Jobs: jobs, Rate: 1}, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for _, a := range got {
		counts[a.Class]++
	}
	small := float64(counts[0]) / float64(jobs)
	if math.Abs(small-0.75) > 0.02 {
		t.Fatalf("class 0 share %.3f, want ≈0.75", small)
	}
}

// TestValidation exercises the error paths.
func TestValidation(t *testing.T) {
	classes := testClasses()
	cases := []struct {
		name    string
		p       Pattern
		classes []Class
	}{
		{"no jobs", Pattern{Rate: 1}, classes},
		{"no rate", Pattern{Jobs: 1}, classes},
		{"bad process", Pattern{Jobs: 1, Rate: 1, Process: "zipf"}, classes},
		{"no classes", Pattern{Jobs: 1, Rate: 1}, nil},
		{"zero weight", Pattern{Jobs: 1, Rate: 1}, []Class{{Weight: 0, MinBytes: 1, MaxBytes: 2}}},
		{"NaN weight", Pattern{Jobs: 1, Rate: 1}, []Class{{Weight: 1, MinBytes: 1, MaxBytes: 2}, {Weight: math.NaN(), MinBytes: 1, MaxBytes: 2}}},
		{"infinite weight", Pattern{Jobs: 1, Rate: 1}, []Class{{Weight: math.Inf(1), MinBytes: 1, MaxBytes: 2}, {Weight: 1, MinBytes: 1, MaxBytes: 2}}},
		{"bad size range", Pattern{Jobs: 1, Rate: 1}, []Class{{Weight: 1, MinBytes: 10, MaxBytes: 5}}},
	}
	for _, tc := range cases {
		if _, err := Generate(1, tc.p, tc.classes); err == nil {
			t.Errorf("%s: Generate accepted an invalid input", tc.name)
		}
	}
}
