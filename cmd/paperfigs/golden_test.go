package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The goldens pin the simulator's output bytes: the stdout of
// `paperfigs -exp all -scale 8` and of the two opt-in steps at scale 8,
// and the trace trees of the five serial-vs-parallel determinism runs in
// CI. Speedups and refactors must
// leave every digest unchanged. A change that means to move one says so
// and records the old and new digest.
//
// A tree digest is the sha256 of `sha256sum` lines over the tree's files
// in byte order of their relative paths, so a shell reproduces it:
//
//	cd DIR && find . -type f -printf '%P\n' | LC_ALL=C sort | xargs sha256sum | sha256sum

// stdoutGoldens are sha256 digests of paperfigs stdout. The opt-in steps
// are not part of -exp all, so each has its own.
var stdoutGoldens = []struct {
	name string
	args []string
	want string
}{
	{"all", []string{"-exp", "all", "-scale", "8"},
		"0e9e3e398d10533fba021f1f60b87ab2a5a23ced1e8e3d27d38771e43f64e926"},
	{"netplace", []string{"-exp", "netplace", "-scale", "8"},
		"bd7355fb3f4e1d746f7a8ccfe98d1d9a340dc08c3cecb9e458a65b480f1988fb"},
	{"autoscale", []string{"-exp", "autoscale", "-scale", "8"},
		"0781d2775680b0d7c1ba5ceddbb816546129050b9c4a940f0915203b8b64f576"},
}

var traceGoldens = []struct {
	name string
	args []string
	want string
}{
	{"fig5", []string{"-exp", "fig5", "-scale", "64", "-bench", "WC,GR"},
		"c75fccd46fda2180fc066a144fac7529f3b4d8a926c378a865399f501abbb4c5"},
	{"workload", []string{"-exp", "workload", "-scale", "64"},
		"71e7faa68452c480f7770ca4db9181d3098541839284edf5515af34892d4a264"},
	{"netplace", []string{"-exp", "netplace", "-scale", "8"},
		"e00405fe19694f64216f4d7509333e5a266d05a78e1a55afa04af833a0dbae9c"},
	{"autoscale", []string{"-exp", "autoscale", "-scale", "8"},
		"7e8d13ab7891f62698526a3e1623037b3696fd688090aaa5042a8668efe36cb8"},
	{"faults", []string{"-exp", "faults", "-scale", "8"},
		"51f15396e53dddc214fca71ff2e443e3cabf6514ca5da559fea90845e0efeada"},
}

func runPaperfigs(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("paperfigs %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.Bytes()
}

func TestGoldenPaperText(t *testing.T) {
	for _, g := range stdoutGoldens {
		t.Run(g.name, func(t *testing.T) {
			out := runPaperfigs(t, g.args...)
			if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != g.want {
				t.Errorf("paperfigs %v stdout sha256 = %s, want %s", g.args, got, g.want)
			}
		})
	}
}

func TestGoldenTraceTrees(t *testing.T) {
	for _, g := range traceGoldens {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			runPaperfigs(t, append(g.args, "-trace-dir", dir)...)
			if got := treeDigest(t, dir); got != g.want {
				t.Errorf("paperfigs %v trace tree sha256 = %s, want %s", g.args, got, g.want)
			}
		})
	}
}

// treeDigest hashes dir's files as documented above.
func treeDigest(t *testing.T, dir string) string {
	t.Helper()
	var rels []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		rels = append(rels, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatalf("no trace files in %s", dir)
	}
	sort.Strings(rels)
	var list bytes.Buffer
	for _, rel := range rels {
		b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&list, "%x  %s\n", sha256.Sum256(b), rel)
	}
	return fmt.Sprintf("%x", sha256.Sum256(list.Bytes()))
}
