package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// randPkgs are the math/rand package paths whose global (process-seeded)
// functions detrand forbids and whose constructors seedflow polices.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// randConstructors are the math/rand functions that build a new
// generator rather than drawing from the global one. They are seedflow's
// concern, not detrand's.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Detrand keeps the wall clock and the process-global RNG out of every
// library package of the module: no non-main package imports time or
// calls a global math/rand function. Simulations take time from the
// sim.Engine clock and randomness from seeded internal/randutil sources,
// so a run is a pure function of its seed. Flagging the import rather
// than each use covers wall-clock reads, time.Time/time.Duration
// declarations, time-seeded sources and exported helpers that hide a
// clock read, all at their source. Package main (the CLIs timing
// themselves) is the one place the wall clock may appear; nothing can
// import it.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "no non-main package imports time or calls a global math/rand " +
		"function",
	Run: runDetrand,
}

func runDetrand(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				pass.Reportf(imp.Pos(),
					"package %s imports time: simulation time comes from the sim.Engine clock; wall-clock timing belongs in package main",
					pass.Pkg.Path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := selectedPackage(info, sel)
			if ok && randPkgs[pkgPath] && !randConstructors[sel.Sel.Name] && isPackageFunc(info, sel) {
				pass.Reportf(sel.Pos(),
					"global %s.%s draws from the process-wide RNG: derive a seeded source via flexmap/internal/randutil",
					pkgPath, sel.Sel.Name)
			}
			return true
		})
	}
}

// selectedPackage resolves sel.X to an imported package name and returns
// its import path.
func selectedPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isPackageFunc reports whether the selector resolves to a package-level
// function (as opposed to a type or variable).
func isPackageFunc(info *types.Info, sel *ast.SelectorExpr) bool {
	_, ok := info.Uses[sel.Sel].(*types.Func)
	return ok
}
