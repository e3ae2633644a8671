package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestBadFlagsRejected: a flag value the run would silently reinterpret
// exits 2 and names the flag, before any simulation runs and before the
// trace directory is created. Each case selects tableI, so a regression
// that accepts the value still returns at once.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"unknown exp", []string{"-exp", "fig9"}, []string{"-exp", `"fig9"`, "all, tableI, tableII", "autoscale"}},
		{"zero scale", []string{"-exp", "tableI", "-scale", "0"}, []string{"-scale"}},
		{"negative scale", []string{"-exp", "tableI", "-scale", "-8"}, []string{"-scale"}},
		{"negative parallel", []string{"-exp", "tableI", "-parallel", "-3"}, []string{"-parallel"}},
		{"zero seed", []string{"-exp", "tableI", "-seed", "0"}, []string{"-seed"}},
		{"malformed scale", []string{"-exp", "tableI", "-scale", "x"}, []string{"-scale"}},
		{"unknown bench", []string{"-exp", "tableI", "-bench", "WC,XX"}, []string{"-bench", `"XX"`, "WC, II"}},
		{"repeated bench", []string{"-exp", "tableI", "-bench", "WC,GR,WC"}, []string{"-bench", `"WC,GR,WC"`, "once"}},
		{"repeated bench any case", []string{"-exp", "tableI", "-bench", "WC, wc"}, []string{"-bench", `"WC, wc"`, "once"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			traceDir := filepath.Join(t.TempDir(), "traces")
			args := append(slices.Clip(tc.args), "-trace-dir", traceDir)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("paperfigs %v exited %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("paperfigs %v printed %q to stdout", tc.args, stdout.String())
			}
			if _, err := os.Stat(traceDir); !os.IsNotExist(err) {
				t.Errorf("paperfigs %v created the trace directory (stat: %v)", tc.args, err)
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("paperfigs %v stderr %q does not mention %q", tc.args, stderr.String(), w)
				}
			}
		})
	}
}

// TestGoodFlagsAccepted: the smallest legal values still run.
func TestGoodFlagsAccepted(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "tableI", "-scale", "1", "-parallel", "0", "-seed", "1"},
		{"-exp", "tableI", "-parallel", "1", "-seed", "-7"},
	} {
		if len(runPaperfigs(t, args...)) == 0 {
			t.Errorf("paperfigs %v printed nothing", args)
		}
	}
}

// TestFig6Alone: fig6 shares fig5's grid within one run, but selected on
// its own it still simulates the grid and prints Fig. 6.
func TestFig6Alone(t *testing.T) {
	out := string(runPaperfigs(t, "-exp", "fig6", "-scale", "64", "-bench", "WC", "-parallel", "1"))
	for _, w := range []string{"Fig. 6 — job efficiency, physical cluster", "Fig. 6 — job efficiency, virtual cluster", "WC"} {
		if !strings.Contains(out, w) {
			t.Errorf("paperfigs -exp fig6 output does not mention %q:\n%s", w, out)
		}
	}
	if strings.Contains(out, "Fig. 5") {
		t.Errorf("paperfigs -exp fig6 printed Fig. 5:\n%s", out)
	}
}
