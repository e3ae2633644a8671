package analysis

import (
	"go/ast"
	"go/types"
)

// simPkgPath is the deterministic event engine whose Handle discipline
// this analyzer enforces.
const simPkgPath = "flexmap/internal/sim"

// Handlesafe enforces the sim.Handle discipline introduced when the
// event queue moved to recycled storage behind generation-checked
// handles (the PR 5 bug class: Cancel on an already-fired event used to
// mark the recycled storage canceled, silently killing an unrelated
// later event). Three rules:
//
//  1. Handles are value types. A *sim.Handle field, variable or
//     parameter shares one handle between owners, so one owner's
//     re-schedule invalidates another's view without the generation
//     check noticing. Store sim.Handle by value.
//  2. A Handle is only meaningful to the Engine that issued it. Passing
//     a handle scheduled on engine A to B.Cancel is a silent no-op at
//     best (generation mismatch) and cross-simulation corruption at
//     worst; the analyzer flags Cancel calls whose handle was assigned
//     from a different engine expression in the same function.
//  3. Handle identity comparison (h1 == h2) is unreliable once storage
//     is recycled: two handles to different logical events can compare
//     equal after reuse. Comparing against the zero Handle
//     (sim.Handle{}) is the one sanctioned shape.
var Handlesafe = &Analyzer{
	Name: "handlesafe",
	Doc: "sim.Handle discipline: no *sim.Handle storage, no cross-engine " +
		"Cancel, no handle identity comparison",
	Run: runHandlesafe,
}

func runHandlesafe(pass *Pass) {
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		checkHandlePointerDecls(pass, f)
		checkHandleComparisons(pass, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCrossEngineCancel(pass, info, fd)
			}
		}
	}
}

// checkHandlePointerDecls flags every type expression *sim.Handle in
// field, parameter, result and var declarations.
func checkHandlePointerDecls(pass *Pass, f *ast.File) {
	info := pass.Pkg.TypesInfo
	report := func(typeExpr ast.Expr) {
		star, ok := typeExpr.(*ast.StarExpr)
		if !ok {
			return
		}
		tv, ok := info.Types[typeExpr]
		if !ok || tv.Type == nil {
			return
		}
		ptr, ok := tv.Type.(*types.Pointer)
		if !ok || !isNamedType(ptr.Elem(), simPkgPath, "Handle") {
			return
		}
		pass.Reportf(star.Pos(),
			"store sim.Handle by value: a *sim.Handle shared between owners defeats the generation check that makes stale Cancel a no-op")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			report(n.Type)
		case *ast.ValueSpec:
			if n.Type != nil {
				report(n.Type)
			}
		}
		return true
	})
}

// checkHandleComparisons flags ==/!= between two sim.Handle values
// unless one side is the zero composite literal.
func checkHandleComparisons(pass *Pass, f *ast.File) {
	info := pass.Pkg.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op.String() != "==" && be.Op.String() != "!=") {
			return true
		}
		if !isHandleExpr(info, be.X) || !isHandleExpr(info, be.Y) {
			return true
		}
		if isZeroComposite(be.X) || isZeroComposite(be.Y) {
			return true
		}
		pass.Reportf(be.Pos(),
			"sim.Handle identity comparison: handles to recycled event storage can compare equal across unrelated events; compare against the zero sim.Handle{} only")
		return true
	})
}

func isHandleExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isNamedType(tv.Type, simPkgPath, "Handle")
}

// isZeroComposite reports whether e is a composite literal with no
// elements (possibly parenthesized) — the zero-Handle idiom.
func isZeroComposite(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	lit, ok := e.(*ast.CompositeLit)
	return ok && len(lit.Elts) == 0
}

// checkCrossEngineCancel tracks, per function, which engine expression
// each local handle variable was scheduled on, and flags Cancel calls
// routed through a different engine expression. The tracking is textual
// (types.ExprString) and local — it proves nothing about aliasing — but
// it catches the realistic mistake: a function holding two engines (a
// sim plus a sub-sim) canceling on the wrong one.
func checkCrossEngineCancel(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	scheduledOn := map[types.Object]string{} // handle var → engine expr text
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				engine, ok := engineMethodCall(info, rhs, "At", "After")
				if !ok {
					continue
				}
				if obj := exprObject(info, n.Lhs[i]); obj != nil {
					scheduledOn[obj] = engine
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Cancel" || len(n.Args) != 1 {
				return true
			}
			s, ok := info.Selections[sel]
			if !ok || s.Kind() != types.MethodVal || !isNamedType(s.Recv(), simPkgPath, "Engine") {
				return true
			}
			obj := exprObject(info, n.Args[0])
			if obj == nil {
				return true
			}
			from, tracked := scheduledOn[obj]
			canceler := types.ExprString(sel.X)
			if tracked && from != canceler {
				pass.Reportf(n.Pos(),
					"handle %s was scheduled on %s but is canceled on %s: a sim.Handle is only meaningful to the engine that issued it",
					obj.Name(), from, canceler)
			}
		}
		return true
	})
}

// engineMethodCall reports whether e is a call of one of the named
// methods on sim.Engine, returning the receiver expression's text.
func engineMethodCall(info *types.Info, e ast.Expr, names ...string) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, name := range names {
		if sel.Sel.Name == name {
			match = true
		}
	}
	if !match {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !isNamedType(s.Recv(), simPkgPath, "Engine") {
		return "", false
	}
	return types.ExprString(sel.X), true
}
