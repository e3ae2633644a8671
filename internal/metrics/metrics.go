// Package metrics computes the paper's evaluation metrics over job
// results: task-runtime distributions (Fig. 1, Fig. 3a), normalized JCT
// series (Fig. 5, Fig. 8), job efficiency (Fig. 6), and task-size /
// productivity traces (Fig. 7). It also provides small text-rendering
// helpers so experiment harnesses can print paper-style tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"flexmap/internal/mr"
)

// Summary condenses one run into the numbers the paper reports.
type Summary struct {
	Engine     string
	JCT        float64
	Efficiency float64
	// MeanProductivity averages Eq. 1 over successful map attempts.
	MeanProductivity float64
}

// Summarize extracts a Summary from a job result.
func Summarize(r *mr.JobResult) Summary {
	prod, maps := 0.0, 0
	for i := range r.Attempts {
		if a := &r.Attempts[i]; a.Type == mr.MapTask && !a.Killed {
			prod += a.Productivity()
			maps++
		}
	}
	if maps > 0 {
		prod /= float64(maps)
	}
	return Summary{
		Engine:           r.Engine,
		JCT:              float64(r.JCT()),
		Efficiency:       r.Efficiency(),
		MeanProductivity: prod,
	}
}

// MapRuntimes returns the runtimes of successful map attempts, sorted
// ascending (the series behind Fig. 1).
func MapRuntimes(r *mr.JobResult) []float64 {
	var out []float64
	for _, a := range r.MapAttempts() {
		out = append(out, float64(a.Runtime()))
	}
	sort.Float64s(out)
	return out
}

// Stats holds basic distribution statistics.
type Stats struct {
	Count          int
	Min, Max, Mean float64
	P10, P50, P90  float64
	P99            float64
	StdDev         float64
}

// Describe computes Stats over a sample (which it sorts in place).
func Describe(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	sort.Float64s(xs)
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return Stats{
		Count:  len(xs),
		Min:    xs[0],
		Max:    xs[len(xs)-1],
		Mean:   mean,
		P10:    Percentile(xs, 0.10),
		P50:    Percentile(xs, 0.50),
		P90:    Percentile(xs, 0.90),
		P99:    Percentile(xs, 0.99),
		StdDev: math.Sqrt(sq / float64(len(xs))),
	}
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of a sorted sample using
// linear interpolation between the two closest ranks (the "C = 1"
// definition, matching numpy's default): rank = p × (n−1), and a
// fractional rank blends the two straddling order statistics. p ≤ 0
// returns the minimum, p ≥ 1 the maximum, and a single-element sample
// returns that element for every p.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width-bin density over a sample.
type Histogram struct {
	Lo, Hi  float64
	Bins    []int
	Total   int
	BinSize float64
}

// NewHistogram bins a sample into n equal-width bins over [lo, hi].
// Values outside the range clamp to the edge bins.
func NewHistogram(xs []float64, lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: invalid histogram shape")
	}
	h := &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n), BinSize: (hi - lo) / float64(n)}
	for _, x := range xs {
		i := int((x - lo) / h.BinSize)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		h.Bins[i]++
		h.Total++
	}
	return h
}

// PDF returns the fraction of samples in each bin.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Bins))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Bins {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// Normalize divides each value by the maximum of the sample, yielding the
// normalized runtimes Fig. 3(a) plots.
func Normalize(xs []float64) []float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	out := make([]float64, len(xs))
	if max == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / max
	}
	return out
}

// NormalizeTo divides every summary's JCT by the baseline engine's JCT
// (the normalization of Fig. 5 and Fig. 8). It returns engine → ratio.
func NormalizeTo(baseline string, sums []Summary) (map[string]float64, error) {
	base := 0.0
	for _, s := range sums {
		if s.Engine == baseline {
			base = s.JCT
		}
	}
	if base == 0 {
		return nil, fmt.Errorf("metrics: baseline engine %q not in summaries", baseline)
	}
	out := make(map[string]float64, len(sums))
	for _, s := range sums {
		out[s.Engine] = s.JCT / base
	}
	return out, nil
}

// SpeedupPercent returns how much faster `a` is than `b` in percent
// ((b-a)/b × 100): positive means a wins.
func SpeedupPercent(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (b - a) / b * 100
}

// TraceBucket aggregates Fig. 7 task size/productivity samples into
// map-phase-progress buckets.
type TraceBucket struct {
	Progress float64 // bucket midpoint in [0,1]
	MeanBUs  float64
	MeanProd float64
	Count    int
}

// BucketTrace groups (progress, BUs, productivity) samples into n buckets
// by progress.
func BucketTrace(progress, bus, prod []float64, n int) []TraceBucket {
	if len(progress) != len(bus) || len(bus) != len(prod) {
		panic("metrics: trace slices length mismatch")
	}
	out := make([]TraceBucket, n)
	for i := range out {
		out[i].Progress = (float64(i) + 0.5) / float64(n)
	}
	for i, p := range progress {
		b := int(p * float64(n))
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		out[b].MeanBUs += bus[i]
		out[b].MeanProd += prod[i]
		out[b].Count++
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].MeanBUs /= float64(out[i].Count)
			out[i].MeanProd /= float64(out[i].Count)
		}
	}
	return out
}

// Table renders an aligned text table: header row plus data rows.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Sparkline renders values as a unicode bar series (for quick terminal
// visualization of PDFs and traces).
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		i := 0
		if max > 0 {
			i = int(x / max * float64(len(levels)-1))
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}
