package analysis

import (
	"go/ast"
)

// Seedflow enforces the repository's single seeding point: every
// *rand.Rand (and rand.Source) must be constructed through
// flexmap/internal/randutil — New, Split, or DeriveSeed — so that the
// i-th consumer of randomness gets the same stream on every run and
// under any execution order. Ad hoc rand.New/rand.NewSource calls
// anywhere else silently fork the seeding discipline: a new consumer
// perturbs its neighbors, and serial-vs-parallel byte-identity breaks.
//
// internal/randutil itself is the one allowed constructor site.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc: "require every *rand.Rand / rand.Source to be constructed via " +
		"flexmap/internal/randutil, never ad hoc",
	Run: runSeedflow,
}

func runSeedflow(pass *Pass) {
	if pass.Pkg.Path == "flexmap/internal/randutil" {
		return
	}
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := selectedPackage(info, sel)
			if !ok || !randPkgs[pkgPath] || !randConstructors[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"ad hoc %s.%s: construct RNGs via flexmap/internal/randutil (New/Split/DeriveSeed) so streams stay reproducible",
				pkgPath, sel.Sel.Name)
			return true
		})
	}
}
