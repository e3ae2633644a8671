package analysis

import "testing"

func TestDetrand(t *testing.T) {
	runWant(t, "testdata/src/detrand", "flexmap/internal/metrics/dtest", Detrand)
}

// TestDetrandScope loads the same body as package main, under a path
// inside the deterministic core: the package name alone decides the
// scope, so detrand must stay silent.
func TestDetrandScope(t *testing.T) {
	pkg := loadTestPkg(t, "testdata/src/detrandmain", "flexmap/internal/sim/dmain")
	if diags := Run([]*Package{pkg}, []*Analyzer{Detrand}); len(diags) != 0 {
		t.Errorf("detrand reported in package main: %v", diags)
	}
}

// TestFactDepWant: a wall-clock helper exported by package a and called
// from package b is flagged once, at a's time import; b, which reaches
// the clock only through a, is silent.
func TestFactDepWant(t *testing.T) {
	t.Run("a", func(t *testing.T) {
		runWant(t, "testdata/src/factdep/a", "flexmap/internal/analysis/testdata/src/factdep/a", Detrand)
	})
	t.Run("b", func(t *testing.T) {
		runWant(t, "testdata/src/factdep/b", "flexmap/internal/workload/fdep", Detrand)
	})
}
