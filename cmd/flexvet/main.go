// Command flexvet runs the repository's determinism static-analysis
// suite (see internal/analysis) and fails the build on findings. It is
// stdlib-only — go/parser, go/ast and go/types, with imports compiled
// from source — so the module stays dependency-free.
//
// Usage:
//
//	flexvet [flags] [packages]
//	flexvet -list
//
// -json emits the diagnostics as JSON; -list prints the analyzers.
//
// Packages default to ./... and may be directories or /... patterns;
// test files are not analyzed (the determinism suite itself exercises
// them at runtime). Run it from inside the module — CI runs:
//
//	go run ./cmd/flexvet ./...
//
// Exit status is uniform across text and JSON modes: 0 clean, 1
// findings, 2 usage, load or type-check errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"flexmap/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: it returns the process
// exit code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errorf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "flexvet: "+format+"\n", a...)
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	loader, err := analysis.NewLoader()
	if err != nil {
		return errorf("%v", err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return errorf("%v", err)
	}

	loadErrors := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "flexvet: %s: %v\n", pkg.Path, terr)
			loadErrors++
		}
	}

	diags := analysis.Run(pkgs, analysis.All())
	for i := range diags {
		diags[i].File = relPath(diags[i].File)
	}

	if *jsonOut {
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		out := struct {
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		}{diags}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return errorf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	switch {
	case loadErrors > 0:
		return 2
	case len(diags) > 0:
		if !*jsonOut {
			fmt.Fprintf(stderr, "flexvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// relPath shortens a filename to be relative to the working directory
// when possible, keeping diagnostics readable and stable across checkouts.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
