package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsRejected: a flag value the run would silently reinterpret
// exits 2 and names the flag, before any simulation runs. Each case
// selects tableI, so a regression that accepts the value still returns
// at once.
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("paperfigs %v exited %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("paperfigs %v printed %q to stdout", tc.args, stdout.String())
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
