// Command flexvet runs the repository's determinism and concurrency
// static-analysis suite (see internal/analysis) and fails the build on
// findings. It is stdlib-only — go/parser, go/ast and go/types, with
// imports compiled from source — so the module stays dependency-free.
//
// Usage:
//
//	flexvet [flags] [packages]
//	flexvet -list
//
// Flags:
//
//	-json                  emit diagnostics (and -facts output) as JSON
//	-run  a,b              run only the named analyzers
//	-skip a,b              run all but the named analyzers
//	-facts                 print the cross-package facts the run exported
//
// Packages default to ./... and may be directories or /... patterns;
// test files are not analyzed (the determinism suite itself exercises
// them at runtime). Run it from inside the module — CI runs:
//
//	go run ./cmd/flexvet ./...
//
// Exit status is uniform across text and JSON modes: 0 clean, 1
// findings, 2 usage, load or type-check errors.
//
// Findings are suppressed per-analyzer by a trailing (or directly
// preceding) comment: //flexvet:ignore <analyzer>.
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
	runSel := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	skipSel := fs.String("skip", "", "comma-separated analyzers to disable")
	facts := fs.Bool("facts", false, "print the facts the run exported")
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

	analyzers, err := selectAnalyzers(*runSel, *skipSel)
	if err != nil {
		return errorf("%v", err)
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

	diags, store := analysis.RunFacts(pkgs, analyzers)
	for i := range diags {
		diags[i].File = relPath(diags[i].File)
	}

	if *jsonOut {
		out := struct {
			Diagnostics []analysis.Diagnostic `json:"diagnostics"`
			Facts       []analysis.Fact       `json:"facts,omitempty"`
		}{Diagnostics: diags}
		if out.Diagnostics == nil {
			out.Diagnostics = []analysis.Diagnostic{}
		}
		if *facts {
			out.Facts = store.All()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return errorf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if *facts {
			for _, f := range store.All() {
				fmt.Fprintf(stdout, "fact: %s %s=%q (%s)\n", f.Key, f.Name, f.Detail, f.Analyzer)
			}
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

// selectAnalyzers resolves -run and -skip to the analyzer set.
func selectAnalyzers(runSel, skipSel string) ([]*analysis.Analyzer, error) {
	analyzers := analysis.All()
	if runSel != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(runSel, ","))
		if err != nil {
			return nil, err
		}
	}
	if skipSel != "" {
		names := strings.Split(skipSel, ",")
		// Validate the names even though we only subtract them.
		if _, err := analysis.ByName(names); err != nil {
			return nil, err
		}
		skip := map[string]bool{}
		for _, n := range names {
			skip[n] = true
		}
		kept := analyzers[:0]
		for _, a := range analyzers {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	return analyzers, nil
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
