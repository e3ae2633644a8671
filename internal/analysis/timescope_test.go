package analysis

import "testing"

// TestTimescope: the wall-clock reads and time.Time/time.Duration
// declarations once reported one by one are now a single detrand
// finding at the time import.
func TestTimescope(t *testing.T) {
	runWant(t, "testdata/src/timescope", "flexmap/internal/workload/tstest", Detrand)
}

// TestTimescopeOutOfScope: detrand has no path list. A non-main package
// under cmd/ is still flagged at its time import, while a command (package
// main) may read the wall clock to time itself.
func TestTimescopeOutOfScope(t *testing.T) {
	pkg := loadTestPkg(t, "testdata/src/detrandmain", "flexmap/cmd/tsmain")
	if diags := Run([]*Package{pkg}, []*Analyzer{Detrand}); len(diags) != 0 {
		t.Errorf("detrand reported in a command's package main: %v", diags)
	}
	runWant(t, "testdata/src/timescope", "flexmap/cmd/tstest", Detrand)
}
