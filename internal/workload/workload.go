// Package workload generates open-arrival multi-job workloads for the
// cluster-level experiments: seeded Poisson or bursty job arrival
// sequences with per-job input sizes drawn from a weighted class mix.
//
// Everything is a pure function of (seed, pattern, classes). The
// arrival-time stream is seeded from randutil.SplitSeed(seed,
// "arrivals"). Each job's seed is randutil.DeriveSeed(seed, index), and
// its class pick and input size draw from streams seeded with
// SplitSeed(job seed, "class") and SplitSeed(job seed, "size"); the
// runner derives the job's own streams from the same seed. So job i sees
// the same stream no matter how many jobs precede it, how the batch is
// parallelized, or in which order jobs complete — the replayability
// contract every determinism test in this repository leans on.
package workload

import (
	"fmt"
	"math"

	"flexmap/internal/randutil"
	"flexmap/internal/sim"
)

// Process selects the arrival process shape.
type Process string

const (
	// Poisson is a homogeneous Poisson process: exponential
	// interarrivals at the configured mean rate.
	Poisson Process = "poisson"
	// Burst is a piecewise-constant-rate Poisson process alternating
	// between an on-phase at burstFactor × the mean rate and a quieter
	// off-phase, with the off-rate solved so the long-run mean still
	// matches Rate. The alternation is exact (memoryless restart at
	// phase boundaries), not an approximation.
	Burst Process = "burst"
)

// The burst process's fixed shape: each burstPeriod-second cycle spends
// burstDuty of its length in an on-phase at burstFactor × Rate and the
// rest in an off-phase at Rate·(1−burstDuty·burstFactor)/(1−burstDuty),
// which is Rate/4.
const (
	burstFactor float64      = 4
	burstDuty   float64      = 0.2
	burstPeriod sim.Duration = 600
)

// Pattern parameterizes an arrival sequence. A Burst pattern spends the
// first 120 s of every 600 s cycle at 4 × Rate and the rest at Rate/4.
type Pattern struct {
	// Jobs is the number of arrivals to generate.
	Jobs int
	// Rate is the long-run mean arrival rate in jobs per second.
	Rate float64
	// Process defaults to Poisson.
	Process Process
}

// withDefaults fills a zero Process.
func (p Pattern) withDefaults() Pattern {
	if p.Process == "" {
		p.Process = Poisson
	}
	return p
}

// validate rejects degenerate patterns.
func (p Pattern) validate() error {
	if p.Jobs <= 0 {
		return fmt.Errorf("workload: pattern needs Jobs > 0, got %d", p.Jobs)
	}
	if p.Rate <= 0 || math.IsInf(p.Rate, 0) || math.IsNaN(p.Rate) {
		return fmt.Errorf("workload: pattern needs a positive finite Rate, got %v", p.Rate)
	}
	switch p.Process {
	case Poisson, Burst:
	default:
		return fmt.Errorf("workload: unknown process %q", p.Process)
	}
	return nil
}

// Class is one entry of the job mix: a selection weight and an input-size
// range. The runner layers engine/spec parameters on top; this package
// only needs what arrival generation draws.
type Class struct {
	// Weight is the relative selection probability (must be positive
	// and finite).
	Weight float64
	// MinBytes and MaxBytes bound the uniform input-size draw.
	MinBytes, MaxBytes int64
}

// Arrival is one generated job arrival.
type Arrival struct {
	// Index is the job's position in the sequence (0-based).
	Index int
	// At is the submission time on the virtual clock.
	At sim.Time
	// Class indexes the classes slice passed to Generate.
	Class int
	// InputBytes is the job's drawn input size.
	InputBytes int64
	// Seed is the job's private seed (DeriveSeed(seed, Index)) — the
	// runner builds all per-job randomness (noise, FlexMap's reduce
	// bias) from it.
	Seed int64
}

// Generate produces the arrival sequence for (seed, pattern, classes).
// Arrival times are non-decreasing; the whole sequence is a pure function
// of its inputs (regenerating yields identical values).
func Generate(seed int64, p Pattern, classes []Class) ([]Arrival, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: no job classes")
	}
	var totalW float64
	for i, c := range classes {
		if !(c.Weight > 0) || math.IsInf(c.Weight, 1) { // NaN fails c.Weight > 0
			return nil, fmt.Errorf("workload: class %d has weight %v; want positive and finite", i, c.Weight)
		}
		if c.MinBytes <= 0 || c.MaxBytes < c.MinBytes {
			return nil, fmt.Errorf("workload: class %d has invalid size range [%d, %d]", i, c.MinBytes, c.MaxBytes)
		}
		totalW += c.Weight
	}

	times := randutil.New(randutil.SplitSeed(seed, "arrivals"))
	out := make([]Arrival, p.Jobs)
	var t float64
	for i := range out {
		t = nextArrival(t, p, times)
		js := randutil.DeriveSeed(seed, i)
		ci := pickClass(randutil.New(randutil.SplitSeed(js, "class")).Float64()*totalW, classes)
		c := classes[ci]
		size := c.MinBytes
		if span := c.MaxBytes - c.MinBytes; span > 0 {
			size += randutil.New(randutil.SplitSeed(js, "size")).Int63n(span + 1)
		}
		out[i] = Arrival{
			Index:      i,
			At:         sim.Time(t),
			Class:      ci,
			InputBytes: size,
			Seed:       js,
		}
	}
	return out, nil
}

// nextArrival advances the arrival clock by one interarrival draw.
func nextArrival(t float64, p Pattern, src *randutil.Source) float64 {
	if p.Process == Poisson {
		return t + src.ExpFloat64()/p.Rate
	}
	// Burst: a non-homogeneous Poisson process with a piecewise-constant
	// rate is simulated exactly by drawing one unit-rate exponential
	// "work" amount and integrating the rate curve until it is spent —
	// the memoryless property makes restarting at each phase boundary
	// exact, not approximate.
	w := src.ExpFloat64()
	hi := p.Rate * burstFactor
	lo := p.Rate * (1 - burstDuty*burstFactor) / (1 - burstDuty)
	period := float64(burstPeriod)
	onLen := burstDuty * period
	for {
		phase := math.Mod(t, period)
		var rate, phaseEnd float64
		if phase < onLen {
			rate, phaseEnd = hi, onLen
		} else {
			rate, phaseEnd = lo, period
		}
		span := phaseEnd - phase
		if spent := rate * span; w > spent {
			w -= spent
			t += span
			continue
		}
		return t + w/rate
	}
}

// pickClass maps a draw in [0, ΣWeight) onto a class index.
func pickClass(draw float64, classes []Class) int {
	for i, c := range classes {
		if draw < c.Weight {
			return i
		}
		draw -= c.Weight
	}
	return len(classes) - 1
}
