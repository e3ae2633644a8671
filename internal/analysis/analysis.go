// Package analysis is a minimal, stdlib-only static-analysis framework
// (go/parser + go/ast + go/types; no external dependencies) backing the
// flexvet determinism checks in cmd/flexvet.
//
// The framework loads and type-checks packages (see Loader), runs a set
// of Analyzers over them, and reports file:line diagnostics.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so analyzers could migrate there if this
// module ever takes on dependencies, but stays a few hundred lines so
// the module remains dependency-free.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: an analyzer name, a source position and a
// human-readable message.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the package in pass.Pkg and reports findings through
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

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

// Run executes every analyzer over every package and returns the
// diagnostics sorted by (file, line, col, analyzer, message), so output
// never depends on package or analyzer order. Identical diagnostics
// from a package loaded more than once are reported exactly once.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			out = append(out, pass.diags...)
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
		if i > 0 && out[i-1] == d {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped
}

// All returns the three flexvet determinism analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Seedflow, Rangemap}
}
