package experiments

// The regression net for the parallel runner: every step of the paper
// sequence, run twice with the same seed — once fully serial, once
// fanned across many workers — must render byte-for-byte identical
// output and traces. This is the contract that lets cmd/paperfigs default to -parallel 0: parallelism
// can change wall-clock time only, never a published number.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flexmap/internal/puma"
)

// detCfg is the determinism grid config: Scale 64 keeps every harness
// cheap while still running full multi-wave jobs.
func detCfg(parallel int) Config {
	return Config{
		Seed:       42,
		Scale:      64,
		Benchmarks: []puma.Benchmark{puma.WordCount, puma.Grep},
		Parallel:   parallel,
	}
}

// TestSerialVsParallelDeterminism runs every step of the paper sequence,
// opt-in ones included, once fully serial and once across 8 workers. Each
// step must render the same text and write the same trace tree. The
// trace directories are emptied between steps, so each step's tree is
// compared on its own.
func TestSerialVsParallelDeterminism(t *testing.T) {
	serialCfg, parallelCfg := detCfg(1), detCfg(8)
	serialCfg.TraceDir, parallelCfg.TraceDir = t.TempDir(), t.TempDir()
	sims := 0
	serialCfg.Progress = func(done, total int) { sims++ }
	serial, parallel := Steps(serialCfg), Steps(parallelCfg)
	for i, step := range serial {
		t.Run(step.Name, func(t *testing.T) {
			sims = 0
			a, err := step.Run()
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			b, err := parallel[i].Run()
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if a != b {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
			}
			if a == "" {
				t.Error("step rendered nothing")
			}
			files := sameTraceTrees(t, serialCfg.TraceDir, parallelCfg.TraceDir)
			if sims > 0 && files == 0 {
				t.Errorf("%d simulations wrote no trace file", sims)
			}
		})
		for _, dir := range []string{serialCfg.TraceDir, parallelCfg.TraceDir} {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameTraceTrees requires the two directories to hold the same trace
// files with the same bytes, and returns how many there are.
func sameTraceTrees(t *testing.T, dirA, dirB string) int {
	t.Helper()
	filesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	filesB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(filesA) != len(filesB) {
		t.Errorf("serial wrote %d trace files, parallel wrote %d", len(filesA), len(filesB))
	}
	for _, f := range filesA {
		a, err := os.ReadFile(filepath.Join(dirA, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, f.Name()))
		if err != nil {
			t.Errorf("parallel run missing trace %s: %v", f.Name(), err)
			continue
		}
		if !bytes.Equal(a, b) {
			t.Errorf("trace %s differs between serial and parallel runs", f.Name())
		}
	}
	return len(filesA)
}

// TestParallelRunRepeatable pins that two parallel runs of the same
// harness also agree with each other (no hidden run-to-run state).
func TestParallelRunRepeatable(t *testing.T) {
	first, err := Fig56(detCfg(0), "physical")
	if err != nil {
		t.Fatal(err)
	}
	second, err := Fig56(detCfg(0), "physical")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.RenderFig5(), second.RenderFig5(); a != b {
		t.Errorf("two parallel runs disagree:\n%s\nvs\n%s", a, b)
	}
}
