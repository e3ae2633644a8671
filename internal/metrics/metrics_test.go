package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"flexmap/internal/mr"
)

func sampleResult() *mr.JobResult {
	return &mr.JobResult{
		Engine:              "hadoop-64m",
		Submitted:           0,
		MapPhaseStart:       1,
		MapPhaseEnd:         11,
		Finished:            20,
		AvailableContainers: 4,
		SpeculativeLaunches: 1,
		Attempts: []mr.AttemptRecord{
			{Task: "m0", Type: mr.MapTask, Start: 1, End: 5, Effective: 3, Overhead: 1},
			{Task: "m1", Type: mr.MapTask, Start: 1, End: 9, Effective: 7, Overhead: 1},
			{Task: "m2", Type: mr.MapTask, Start: 2, End: 8, Killed: true},
			{Task: "r0", Type: mr.ReduceTask, Start: 11, End: 20},
		},
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleResult())
	if s.Engine != "hadoop-64m" || s.JCT != 20 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	wantProd := (3.0/4 + 7.0/8) / 2
	if math.Abs(s.MeanProductivity-wantProd) > 1e-12 {
		t.Fatalf("mean productivity = %v, want %v", s.MeanProductivity, wantProd)
	}
}

func TestMapRuntimesSortedAndFiltered(t *testing.T) {
	rts := MapRuntimes(sampleResult())
	if len(rts) != 2 {
		t.Fatalf("runtimes = %v, want 2 entries (killed excluded)", rts)
	}
	if rts[0] != 4 || rts[1] != 8 {
		t.Fatalf("runtimes = %v, want [4 8]", rts)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe([]float64{4, 8, 2, 6})
	if s.Count != 4 || s.Min != 2 || s.Max != 8 || s.Mean != 5 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.P50 != 5 {
		t.Fatalf("p50 = %v, want 5", s.P50)
	}
	if Describe(nil).Count != 0 {
		t.Fatal("empty describe should be zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Fatalf("p%.2f = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestPercentileBoundaries(t *testing.T) {
	one := []float64{7}
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		if got := Percentile(one, p); got != 7 {
			t.Fatalf("single element: p%.2f = %v, want 7", p, got)
		}
	}
	two := []float64{10, 20}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10},   // p=0 is the minimum
		{1, 20},   // p=1 is the maximum
		{0.5, 15}, // midpoint interpolates linearly
		{0.25, 12.5},
		{-1, 10}, // out-of-range clamps
		{2, 20},
	} {
		if got := Percentile(two, tc.p); got != tc.want {
			t.Fatalf("two elements: p%.2f = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestHistogramAndPDF(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.1, 0.9, -5, 99}, 0, 1, 10)
	if h.Total != 5 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Bins[0] != 1 { // the clamped -5; boundary values go to the upper bin
		t.Fatalf("bin 0 = %d, want 1", h.Bins[0])
	}
	if h.Bins[1] != 2 { // the two 0.1 samples
		t.Fatalf("bin 1 = %d, want 2", h.Bins[1])
	}
	if h.Bins[9] != 2 { // 0.9 plus the clamped 99
		t.Fatalf("bin 9 = %d, want 2", h.Bins[9])
	}
	pdf := h.PDF()
	sum := 0.0
	for _, v := range pdf {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PDF sums to %v", sum)
	}
}

func TestHistogramPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad histogram shape did not panic")
		}
	}()
	NewHistogram(nil, 1, 0, 10)
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8})
	if out[0] != 0.25 || out[2] != 1 {
		t.Fatalf("normalize = %v", out)
	}
	if Normalize([]float64{0, 0})[0] != 0 {
		t.Fatal("all-zero normalize should be zeros")
	}
}

func TestNormalizeTo(t *testing.T) {
	sums := []Summary{
		{Engine: "hadoop-64m", JCT: 100},
		{Engine: "flexmap", JCT: 60},
	}
	norm, err := NormalizeTo("hadoop-64m", sums)
	if err != nil {
		t.Fatal(err)
	}
	if norm["flexmap"] != 0.6 || norm["hadoop-64m"] != 1.0 {
		t.Fatalf("norm = %v", norm)
	}
	if _, err := NormalizeTo("absent", sums); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestSpeedupPercent(t *testing.T) {
	if got := SpeedupPercent(60, 100); got != 40 {
		t.Fatalf("speedup = %v, want 40", got)
	}
	if SpeedupPercent(1, 0) != 0 {
		t.Fatal("zero baseline should be 0")
	}
}

func TestBucketTrace(t *testing.T) {
	progress := []float64{0.05, 0.15, 0.95, 1.0}
	bus := []float64{1, 2, 30, 40}
	prod := []float64{0.2, 0.3, 0.9, 1.0}
	buckets := BucketTrace(progress, bus, prod, 10)
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Count != 1 || buckets[0].MeanBUs != 1 {
		t.Fatalf("bucket 0 = %+v", buckets[0])
	}
	if buckets[9].Count != 2 || buckets[9].MeanBUs != 35 {
		t.Fatalf("bucket 9 = %+v", buckets[9])
	}
}

func TestBucketTraceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched trace slices did not panic")
		}
	}()
	BucketTrace([]float64{1}, nil, nil, 5)
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "xxxx") {
		t.Fatalf("data row missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline runes = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Describe(xs)
		prev := s.Min
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < s.Min || v > s.Max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
