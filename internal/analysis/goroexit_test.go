package analysis

import "testing"

func TestGoroexit(t *testing.T) {
	runWant(t, "testdata/src/goroexit", "flexmap/internal/engine/goetest", Goroexit)
}

// internal/parallel is the sanctioned concurrency surface; the same code
// there is not flagged.
func TestGoroexitExemptsParallel(t *testing.T) {
	pkg := loadTestPkg(t, "testdata/src/goroexit", "flexmap/internal/parallel/goetest")
	if diags := Run([]*Package{pkg}, []*Analyzer{Goroexit}); len(diags) != 0 {
		t.Errorf("goroexit in internal/parallel: got %d diagnostics, want 0; first: %v", len(diags), diags[0])
	}
}
