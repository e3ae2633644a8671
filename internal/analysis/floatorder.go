package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parallelPkgPath is the sanctioned real-concurrency surface whose
// callbacks run in worker-completion order.
const parallelPkgPath = "flexmap/internal/parallel"

// Floatorder generalizes rangemap's float-accumulation rule beyond map
// ranges: any closure that runs in nondeterministic order — a goroutine
// body, or any callback handed to internal/parallel, such as parallel.Map's
// job and progress functions — must not accumulate into a captured
// float. Floating-point addition is not associative, so `sum += x`
// across completion-ordered callbacks yields different low bits run to
// run even when every input is identical; the same-seed byte-identity
// suite then fails on the formatted totals. The sanctioned shape is
// per-result values reduced in a deterministic order after the pool
// returns (parallel.Map returns results in index order for exactly this
// reason).
var Floatorder = &Analyzer{
	Name: "floatorder",
	Doc: "no float accumulation into captured variables from " +
		"completion-ordered closures (goroutines, parallel callbacks)",
	Run: runFloatorder,
}

func runFloatorder(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkUnorderedLit(pass, lit, "a goroutine body")
				}
			case *ast.CallExpr:
				// Closures handed directly to internal/parallel run in
				// completion order: job functions on its workers, progress
				// callbacks as each job finishes.
				if fn := calledFunc(info, n); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == parallelPkgPath {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkUnorderedLit(pass, lit, "a callback passed to parallel."+fn.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// checkUnorderedLit flags float accumulation into captured variables
// inside a closure that runs in completion order.
func checkUnorderedLit(pass *Pass, lit *ast.FuncLit, where string) {
	info := pass.Pkg.TypesInfo
	captured := func(e ast.Expr) bool {
		obj := exprObject(info, e)
		if obj == nil {
			return false
		}
		// Declared outside the literal's span: a captured local, a field,
		// or a package variable. Fields of captured receivers land here
		// too, since the field's declaration is outside the closure.
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		// Nested literals are walked too: a closure inside an unordered
		// callback still runs in completion order, and captured() already
		// exempts anything declared inside this literal's span.
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if isFloat(info, lhs) && captured(lhs) {
				reportFloatorder(pass, as.Pos(), exprObject(info, lhs), where)
			}
		case token.ASSIGN:
			// x = x + e spelled out.
			if be, ok := as.Rhs[0].(*ast.BinaryExpr); ok &&
				(be.Op == token.ADD || be.Op == token.SUB) &&
				isFloat(info, lhs) && captured(lhs) && mentionsObject(info, be, exprObject(info, lhs)) {
				reportFloatorder(pass, as.Pos(), exprObject(info, lhs), where)
			}
		}
		return true
	})
}

func reportFloatorder(pass *Pass, pos token.Pos, obj types.Object, where string) {
	name := "it"
	if obj != nil {
		name = obj.Name()
	}
	pass.Reportf(pos,
		"completion-order-dependent float accumulation into %s inside %s: float addition is not associative, so the sum's low bits vary run to run; return per-result values and reduce them in submission order after the pool finishes",
		name, where)
}

// mentionsObject reports whether the expression references obj.
func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
