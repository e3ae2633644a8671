package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroexit keeps the deterministic core single-threaded: simulated
// concurrency is expressed as sim events on the virtual clock, and the
// only real concurrency lives behind internal/parallel's deterministic
// reduction. A `go` statement or a blocking channel operation anywhere
// else reintroduces scheduler-order nondeterminism that the same-seed
// byte-identity suite cannot tolerate: goroutine interleaving varies
// run to run, and an unbuffered channel op is a synchronization point
// whose ordering the Go scheduler — not the scenario seed — decides.
//
// internal/parallel is exempt (it is the sanctioned concurrency
// surface); internal/analysis is exempt (the linter itself is host
// tooling, not simulation).
var Goroexit = &Analyzer{
	Name: "goroexit",
	Doc: "no go statements or unbuffered channel operations in the " +
		"deterministic core outside internal/parallel",
	Applies: func(pkgPath string) bool {
		return pathIn(pkgPath, "flexmap/internal") &&
			!pathIn(pkgPath, "flexmap/internal/parallel", "flexmap/internal/analysis")
	},
	Run: runGoroexit,
}

func runGoroexit(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in deterministic package %s: goroutine interleaving is scheduler-ordered, not seed-ordered; model concurrency as sim events or route through internal/parallel", pass.Pkg.Path)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select in deterministic package %s: case choice is scheduler-dependent; model alternatives as sim events", pass.Pkg.Path)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in deterministic package %s: channel synchronization order is scheduler-dependent; use sim events or internal/parallel", pass.Pkg.Path)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(),
						"channel receive in deterministic package %s: channel synchronization order is scheduler-dependent; use sim events or internal/parallel", pass.Pkg.Path)
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(),
							"ranges over a channel in deterministic package %s: receive order is scheduler-dependent; use sim events or internal/parallel", pass.Pkg.Path)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) == 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						if tv, ok := info.Types[n.Args[0]]; ok && tv.Type != nil {
							if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(n.Pos(),
									"unbuffered channel in deterministic package %s: every op on it is a scheduler-ordered rendezvous; if a channel is unavoidable, buffer it and keep it inside internal/parallel", pass.Pkg.Path)
							}
						}
					}
				}
			}
			return true
		})
	}
}
