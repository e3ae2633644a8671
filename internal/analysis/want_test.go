package analysis

// This file is a miniature analysistest harness: it loads a testdata
// package under a caller-chosen virtual import path, runs analyzers
// through the same Run pipeline the flexvet CLI uses, and checks the
// diagnostics against `// want` expectation comments:
//
//	for k := range m { // want "regexp matching the message"
//	_ = rand.Intn(10) // want detrand:"global math/rand"
//
// The comment is raw text, not a Go string literal: escape regexp
// metacharacters with a single backslash.
//
// A want comment expects diagnostics on its own line. Each quoted
// regexp must be matched by exactly one diagnostic, and every
// diagnostic must match a want — extras in either direction fail.
// An optional analyzer: tag restricts which analyzer may satisfy it.

import (
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes stdlib type-checking across the analyzer tests.
var sharedLoader = sync.OnceValues(NewLoader)

// wantRe matches one expectation: an optional analyzer tag and a quoted
// regexp. (Escaped quotes are not supported; testdata messages avoid
// them.)
var wantRe = regexp.MustCompile(`(?:([a-zA-Z0-9_]+):)?"([^"]*)"`)

type wantExp struct {
	file     string
	line     int
	analyzer string // "" = any analyzer
	re       *regexp.Regexp
	matched  bool
}

// runWant loads dir as package asPath and checks the analyzers'
// diagnostics against the package's want comments.
func runWant(t *testing.T, dir, asPath string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadTestPkg(t, dir, asPath)
	wants := collectWants(t, pkg)
	diags := Run([]*Package{pkg}, analyzers)

outer:
	for _, d := range diags {
		for _, w := range wants {
			if w.matched || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.analyzer != "" && w.analyzer != d.Analyzer {
				continue
			}
			if !w.re.MatchString(d.Message) {
				continue
			}
			w.matched = true
			continue outer
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s diagnostic matched want %q",
				w.file, w.line, orAny(w.analyzer), w.re)
		}
	}
}

func orAny(analyzer string) string {
	if analyzer == "" {
		return "(any)"
	}
	return analyzer
}

func loadTestPkg(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("type error in %s: %v", dir, terr)
	}
	if t.Failed() {
		t.Fatalf("testdata package %s must type-check cleanly", dir)
	}
	return pkg
}

func collectWants(t *testing.T, pkg *Package) []*wantExp {
	t.Helper()
	var wants []*wantExp
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[2], err)
						continue
					}
					wants = append(wants, &wantExp{
						file:     pos.Filename,
						line:     pos.Line,
						analyzer: m[1],
						re:       re,
					})
				}
			}
		}
	}
	return wants
}
