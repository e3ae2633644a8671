// Package analysis is a minimal, stdlib-only static-analysis framework
// (go/parser + go/ast + go/types; no external dependencies) backing the
// flexvet determinism and concurrency checks in cmd/flexvet.
//
// The framework loads and type-checks packages (see Loader), runs a set
// of Analyzers over them, and reports file:line diagnostics. Findings on
// a line carrying (or directly below) a `//flexvet:ignore <analyzer>`
// comment are suppressed for exactly the named analyzers.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so analyzers could migrate there if this
// module ever takes on dependencies, but stays a few hundred lines so
// the module remains dependency-free.
package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
)

// Diagnostic is one finding: an analyzer name, a source position, a
// human-readable message, and optionally a mechanical suggested fix.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Fix      *Fix   `json:"fix,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //flexvet:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Applies, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. Nil means every package.
	Applies func(pkgPath string) bool
	// Run inspects the package in pass.Pkg and reports findings through
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) run. Facts is the run-wide fact
// store: packages are analyzed in dependency order, so facts exported
// while analyzing a package's module dependencies are already present.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Facts    *FactStore

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a finding at pos carrying a suggested edit: replace
// the source span [pos, end) with newText. Spans crossing a line
// boundary drop the fix and keep the plain diagnostic (every fix this
// suite suggests is a single-line rewrite).
func (p *Pass) ReportFix(pos, end token.Pos, fixMsg, newText, format string, args ...any) {
	p.Reportf(pos, format, args...)
	start := p.Pkg.Fset.Position(pos)
	stop := p.Pkg.Fset.Position(end)
	if start.Filename != stop.Filename || start.Line != stop.Line {
		return
	}
	d := &p.diags[len(p.diags)-1]
	d.Fix = &Fix{
		Message: fixMsg,
		Edits: []Edit{{
			File: start.Filename, Line: start.Line,
			StartCol: start.Column, EndCol: stop.Column, New: newText,
		}},
	}
}

// SpanEdit builds a single-line Edit replacing [pos, end) with newText.
// It reports false when the span crosses a line boundary.
func (p *Pass) SpanEdit(pos, end token.Pos, newText string) (Edit, bool) {
	start := p.Pkg.Fset.Position(pos)
	stop := p.Pkg.Fset.Position(end)
	if start.Filename != stop.Filename || start.Line != stop.Line {
		return Edit{}, false
	}
	return Edit{
		File: start.Filename, Line: start.Line,
		StartCol: start.Column, EndCol: stop.Column, New: newText,
	}, true
}

// ReportWithFix records a finding at pos with a multi-edit fix. All
// edits must target one line of one file (use SpanEdit); passing no
// edits records a plain diagnostic.
func (p *Pass) ReportWithFix(pos token.Pos, fixMsg string, edits []Edit, format string, args ...any) {
	p.Reportf(pos, format, args...)
	if len(edits) == 0 {
		return
	}
	p.diags[len(p.diags)-1].Fix = &Fix{Message: fixMsg, Edits: edits}
}

// ExportFact attaches a fact to the object named by key, visible to
// analyzers of every package analyzed after this one.
func (p *Pass) ExportFact(key, name, detail string) {
	if key == "" {
		return
	}
	p.Facts.Export(Fact{Key: key, Name: name, Detail: detail, Analyzer: p.Analyzer.Name})
}

// Fact looks up a fact exported by any analyzer on any already-analyzed
// package.
func (p *Pass) Fact(key, name string) (Fact, bool) {
	if key == "" {
		return Fact{}, false
	}
	return p.Facts.Lookup(key, name)
}

// Run executes every applicable analyzer over every package, applies
// //flexvet:ignore suppressions, and returns the surviving diagnostics
// sorted by (file, line, col, analyzer, message) so output is stable.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunFacts(pkgs, analyzers)
	return diags
}

// RunFacts is Run exposing the fact store the analyzers populated
// (flexvet -facts prints it). Packages are analyzed in dependency order
// — imports before importers — so facts exported for a package are
// visible while analyzing its dependents, and identical diagnostics
// from a package loaded more than once are reported exactly once.
func RunFacts(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *FactStore) {
	store := NewFactStore()
	var out []Diagnostic
	for _, pkg := range sortByDeps(pkgs) {
		ign := buildIgnores(pkg)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Facts: store}
			a.Run(pass)
			for _, d := range pass.diags {
				if ign.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedupe identical findings: a package loaded under two patterns (or
	// as itself and as part of a wider load) must report each once.
	deduped := out[:0]
	for i, d := range out {
		if i > 0 {
			prev := out[i-1]
			if prev.Analyzer == d.Analyzer && prev.File == d.File &&
				prev.Line == d.Line && prev.Col == d.Col && prev.Message == d.Message {
				continue
			}
		}
		deduped = append(deduped, d)
	}
	return deduped, store
}

// All returns the eight flexvet analyzers in reporting order: the four
// determinism and locking analyzers, then the four covering sim handles,
// goroutine exits, float accumulation order and the wall clock.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand, Seedflow, Rangemap, Lockheld,
		Handlesafe, Goroexit, Floatorder, Timescope,
	}
}

// ByName returns the analyzers matching the given names, or an error
// naming the first unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// pathIn reports whether pkgPath is one of the given import paths or a
// subpackage of one.
func pathIn(pkgPath string, roots ...string) bool {
	for _, r := range roots {
		if pkgPath == r || (len(pkgPath) > len(r) && pkgPath[:len(r)] == r && pkgPath[len(r)] == '/') {
			return true
		}
	}
	return false
}

// guardedRe matches "guarded by <name>" in a doc comment (lockheld) —
// kept here so the comment grammar is documented next to the framework.
var guardedRe = regexp.MustCompile(`guarded by (\w+)`)
