package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexmap/internal/datagen"
)

// TestEachKind writes each kind to stdout, and to a file with -o, and
// compares both with the generator's own output.
func TestEachKind(t *testing.T) {
	for kind, gen := range map[string]func(int, int64) []byte{
		"wikipedia": datagen.Wikipedia, "netflix": datagen.Netflix, "teragen": datagen.TeraGen,
	} {
		want, path := gen(1<<20, 7), filepath.Join(t.TempDir(), kind)
		args := []string{"-kind", kind, "-size-mb", "1", "-seed", "7"}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		code2 := run(append(args, "-o", path), io.Discard, &stderr)
		got, err := os.ReadFile(path)
		if code != 0 || code2 != 0 || err != nil || !bytes.Equal(stdout.Bytes(), want) || !bytes.Equal(got, want) {
			t.Errorf("%s: exit %d and %d (%v), %d bytes to stdout and %d to -o, want 0 and the generator's %d; stderr: %s",
				kind, code, code2, err, stdout.Len(), len(got), len(want), &stderr)
		}
	}
}

// TestRejections checks that a bad value exits 1 naming its flag, and a
// flag that does not parse exits 2, with nothing written.
func TestRejections(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		flag string
	}{
		{[]string{"-kind", "teragen", "-size-mb", "-1"}, 1, "-size-mb"},
		{[]string{"-kind", "wikipedia", "-size-mb", "8796093022208"}, 1, "-size-mb"},
		{[]string{"-kind", "csv"}, 1, "kind"},
		{[]string{"-kind", "teragen", "-size-mb", "0", "-o", filepath.Join(t.TempDir(), "missing", "f")}, 1, "missing"},
		{[]string{"-size-mb", "lots"}, 2, "-size-mb"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("run(%q) = %d with %d bytes out, want %d and nothing; stderr %q should name %s",
				c.args, code, stdout.Len(), c.code, stderr.String(), c.flag)
		}
	}
}
