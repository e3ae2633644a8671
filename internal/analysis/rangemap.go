package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rangemap flags `for … range` loops over maps whose iteration order can
// escape: bodies that format or print, write to an ordered sink
// (strings.Builder, bytes.Buffer, io.Writer-style Write* methods, or a
// channel send), schedule simulator events (sim.Engine After/At — the
// event queue breaks ties FIFO, so insertion order is observable), or
// accumulate floating-point values (addition order changes low bits).
//
// The one sanctioned shape is key collection: a body that only appends
// to slices which are each sorted later in the same function (sort.* or
// slices.Sort*) is the collect-then-sort idiom and is not flagged.
// maputil.SortedKeys packages that idiom; ranging over its result is a
// slice range and never triggers this analyzer.
var Rangemap = &Analyzer{
	Name: "rangemap",
	Doc: "flag map iteration whose nondeterministic order reaches output, " +
		"ordered sinks, event scheduling, or float accumulation",
	Run: runRangemap,
}

// simEnginePath is the type whose After/At methods feed the FIFO
// tie-broken event queue.
const simEnginePath = "flexmap/internal/sim"

func runRangemap(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
}

func checkMapRange(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	info := pass.Pkg.TypesInfo
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	var appended []types.Object
	reason := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if r := sinkCall(info, n); r != "" {
				reason = r
			}
		case *ast.SendStmt:
			reason = "sends on a channel"
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloat(info, n.Lhs[0]) && definedOutside(info, n.Lhs[0], rs) {
					reason = "accumulates floating-point values (addition order changes the result)"
				}
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isAppendCall(info, rhs) && definedOutside(info, n.Lhs[i], rs) {
						if obj := exprObject(info, n.Lhs[i]); obj != nil {
							appended = append(appended, obj)
						}
					}
				}
			}
		}
		return true
	})

	if reason == "" {
		for _, obj := range appended {
			if !sortedAfter(info, fn, rs, obj) {
				reason = "appends to " + obj.Name() + " without sorting it afterwards"
				break
			}
		}
	}
	if reason == "" {
		return
	}
	pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and this loop %s: iterate sorted keys (e.g. maputil.SortedKeys) or sort the result", reason)
}

// sinkCall classifies a call as order-sensitive and returns the reason,
// or "".
func sinkCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if pkgPath, ok := selectedPackage(info, sel); ok {
		switch pkgPath {
		case "fmt":
			// Only actual printing is a sink; Sprintf and friends build
			// per-entry values whose use decides whether order escapes.
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
				return "formats output via fmt." + name
			}
		case "log":
			return "formats output via log." + name
		}
		return ""
	}
	// Method calls: Write*/other sink methods on an ordered sink, or
	// sim.Engine event scheduling.
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if (name == "After" || name == "At") && isNamedType(recv, simEnginePath, "Engine") {
		return "schedules simulator events via sim.Engine." + name + " (the event queue breaks ties in insertion order)"
	}
	if len(name) >= 5 && name[:5] == "Write" &&
		(isNamedType(recv, "strings", "Builder") || isNamedType(recv, "bytes", "Buffer") ||
			implementsIOWriter(recv)) {
		return "writes to an ordered sink via " + name
	}
	return ""
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// implementsIOWriter reports whether the receiver type has a
// Write([]byte) (int, error) method — the io.Writer shape — without
// importing io's type (we may be analyzing a package that doesn't).
func implementsIOWriter(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i)
		if m.Obj().Name() != "Write" {
			continue
		}
		sig, ok := m.Obj().Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
			continue
		}
		slice, ok := sig.Params().At(0).Type().(*types.Slice)
		if !ok {
			continue
		}
		if basic, ok := slice.Elem().(*types.Basic); ok && basic.Kind() == types.Byte {
			return true
		}
	}
	return false
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// exprObject resolves an identifier or field selector to its object.
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// definedOutside reports whether the expression's object outlives the
// loop (declared before it, or a field). Loop-local temporaries cannot
// leak iteration order.
func definedOutside(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	obj := exprObject(info, e)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortRecognizers maps sorting functions (package → names) whose call on
// a collected slice legitimizes the collect-then-sort idiom.
var sortRecognizers = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortedAfter reports whether obj is passed to a recognized sort call
// positioned after the range statement within the same function.
func sortedAfter(info *types.Info, fn *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, ok := selectedPackage(info, sel)
		if !ok || !sortRecognizers[pkgPath][sel.Sel.Name] {
			return true
		}
		arg := call.Args[0]
		// sort.Sort(byName(xs)) wraps the slice in a conversion.
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			arg = conv.Args[0]
		}
		if exprObject(info, arg) == obj {
			found = true
		}
		return true
	})
	return found
}
