package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flexmap/internal/analysis"
)

// The test working directory is cmd/flexvet, inside the module, so
// NewLoader resolves go.mod two levels up and relative patterns work.

const (
	cleanPkg = "../../internal/maputil"
	dirtyPkg = "../../internal/analysis/testdata/src/rangemap"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestExitCleanIsZero(t *testing.T) {
	for _, mode := range [][]string{{cleanPkg}, {"-json", cleanPkg}} {
		code, _, stderr := runCLI(t, mode...)
		if code != 0 {
			t.Errorf("run(%v) = %d, want 0; stderr: %s", mode, code, stderr)
		}
	}
}

func TestExitFindingsIsOneInBothModes(t *testing.T) {
	code, stdout, _ := runCLI(t, dirtyPkg)
	if code != 1 {
		t.Fatalf("text mode exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "rangemap") {
		t.Errorf("text output missing analyzer name:\n%s", stdout)
	}

	code, stdout, _ = runCLI(t, "-json", dirtyPkg)
	if code != 1 {
		t.Fatalf("json mode exit = %d, want 1 (exit codes must be uniform across modes)", code)
	}
	var payload struct {
		Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(stdout), &payload); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, stdout)
	}
	if len(payload.Diagnostics) == 0 {
		t.Error("json output has no diagnostics despite exit 1")
	}
}

func TestExitErrorIsTwo(t *testing.T) {
	cases := [][]string{
		{"./does-not-exist"},
		{"-json", "./does-not-exist"},
		{"-nosuchflag"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestListExitsZero(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "detrand seedflow rangemap handlesafe"; got != want {
		t.Errorf("-list analyzers = %q, want %q", got, want)
	}
}
