package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"flexmap/internal/sim"
)

// Reference values from Python's statistics.median and
// statistics.quantiles(xs, n=4).
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 7.7}, 4.4, 2.2, 7.7},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestWithinBound(t *testing.T) {
	cases := []struct {
		base, got, bound float64
		lower, want      bool
	}{
		{10, 10.9, 0.1, true, true},
		{10, 11.1, 0.1, true, false},
		{10, 5, 0.1, true, true},
		{10, 9.1, 0.1, false, true},
		{10, 8.9, 0.1, false, false},
	}
	for _, c := range cases {
		if got := withinBound(c.base, c.got, c.bound, c.lower); got != c.want {
			t.Errorf("withinBound(%v, %v, %v, lower=%v) = %v, want %v", c.base, c.got, c.bound, c.lower, got, c.want)
		}
	}
}

func TestPeakRSSCountsThisProcess(t *testing.T) {
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	mb, err := peakRSSMB()
	if err != nil {
		t.Skipf("no VmHWM: %v", err)
	}
	if mb < 64 {
		t.Errorf("peak RSS %.1f MB after touching 64 MB", mb)
	}
	runtime.KeepAlive(ballast)
}

// The kernel's work must not be optimised away.
func TestReferenceKernelDoesItsWork(t *testing.T) {
	if s := newReference().seconds(); s < 0.01 {
		t.Errorf("reference kernel took %v s", s)
	}
}

func TestUnknownEventIsChargedToOther(t *testing.T) {
	if got := fireKey("nm-heartbeat"); got != "nm-heartbeat" {
		t.Errorf("fireKey(nm-heartbeat) = %q", got)
	}
	for _, name := range []string{"no-such-event", "other", ""} {
		if got := fireKey(name); got != "other" {
			t.Errorf("fireKey(%q) = %q, want other", name, got)
		}
	}
}

func TestProbeChargesEachSpanToTheEventBeforeIt(t *testing.T) {
	p := newProbe(true)
	p.begin()
	for _, name := range []string{"a", "b", "a"} {
		p.fire(0, name)
	}
	p.end()
	if p.setup() <= 0 {
		t.Errorf("setup = %v, want > 0", p.setup())
	}
	if a, b := p.fires["a"], p.fires["b"]; a.Calls != 2 || b.Calls != 1 {
		t.Fatalf("fires = %v, want a twice and b once", p.fires)
	}
}

func TestFrameModule(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.insertionSort", "sort.Float64s", "flexmap/internal/speculate.(*LATE).selectVictim", "flexmap/internal/engine.(*StockAM).OnSlotFree"}, "speculate"},
		{[]string{"runtime.mapaccess1", "flexmap/internal/yarn.(*InterJob).OnSlotFree.func1"}, "yarn"},
		{[]string{"flexmap/benchmark.(*probe).fire", "flexmap/internal/sim.(*Engine).RunUntil"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := frameModule(c.frames); got != c.want {
			t.Errorf("frameModule(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// The sim engine's schedule-and-fire loop is profiled in the test; the
// profile reader must charge its samples to the sim module.
func TestProfileAttributesBusyFunctionToItsPackage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own work dominates the profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	eng := sim.New()
	noop := func() {}
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 10000; i++ {
			eng.After(sim.Duration(i%97), "busy", noop)
		}
		for eng.Step() {
		}
	}
	pprof.StopCPUProfile()
	samples, err := moduleSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range samples {
		total += n
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if share := float64(samples["sim"]) / float64(total); share < 0.6 {
		t.Errorf("sim has %.0f%% of %d samples, want most: %v", 100*share, total, samples)
	}
}

// Every metric the benchmark can measure must be named in BENCHMARK.json
// at the repository root.
func TestSpecNamesEveryLayerMetric(t *testing.T) {
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	var want []string
	for _, f := range firedNames {
		want = append(want, "fire."+f+".calls", "fire."+f+".ms", "fire."+f+".us_per_call")
	}
	for _, m := range profModules {
		want = append(want, "prof."+m+".share")
	}
	for _, w := range want {
		if !slices.Contains(names, w) {
			t.Errorf("%s has no per-layer metric %s", specFile, w)
		}
	}
}

// The paper workload must print what cmd/paperfigs prints.
func TestPaperMirrorMatchesPaperfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper sequence twice")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	const scale = 64
	cmd := exec.Command("go", "run", "./cmd/paperfigs", "-exp", "all", "-scale", fmt.Sprint(scale), "-parallel", "1")
	cmd.Dir = ".."
	want, err := cmd.Output()
	if err != nil {
		t.Fatalf("paperfigs: %v", err)
	}
	got, err := paperText(42, scale, newProbe(false))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("paper mirror differs from paperfigs output:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}
