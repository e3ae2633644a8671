package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Fact is one named property an analyzer attaches to an exported object
// so analyzers running later — in particular over packages that import
// the object's package — can consult it. Facts are keyed by a stable
// textual object path (see FuncKey) rather than by
// types.Object identity, because each package is type-checked in its own
// universe: the importing package's view of an object is a different
// *types.Object than the defining package's, but both render to the
// same key.
type Fact struct {
	// Key is the object path, e.g.
	// "flexmap/internal/analysis/testdata/src/factdep/a.WallNow".
	Key string `json:"key"`
	// Name is the fact kind, e.g. "wall-clock".
	Name string `json:"name"`
	// Detail is the analyzer-specific payload (for a wall-clock fact,
	// the function it was derived through).
	Detail string `json:"detail"`
	// Analyzer is the exporting analyzer's name.
	Analyzer string `json:"analyzer"`
}

// FactStore accumulates facts across one Run. Packages are analyzed in
// dependency order (imports before importers, see sortByDeps), so by the
// time an analyzer sees package B, every fact its analyzers exported for
// B's module dependencies is present.
type FactStore struct {
	byKey map[string][]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byKey: map[string][]Fact{}}
}

// Export records a fact. Duplicate (Key, Name, Analyzer) exports keep
// the first Detail — analyzers may re-derive the same fact when a
// package is loaded twice.
func (s *FactStore) Export(f Fact) {
	for _, have := range s.byKey[f.Key] {
		if have.Name == f.Name && have.Analyzer == f.Analyzer {
			return
		}
	}
	s.byKey[f.Key] = append(s.byKey[f.Key], f)
}

// Lookup returns the fact with the given key and name, if any analyzer
// exported one.
func (s *FactStore) Lookup(key, name string) (Fact, bool) {
	for _, f := range s.byKey[key] {
		if f.Name == name {
			return f, true
		}
	}
	return Fact{}, false
}

// All returns every fact sorted by (Key, Name, Analyzer) — the stable
// order `flexvet -facts` prints.
func (s *FactStore) All() []Fact {
	var out []Fact
	for _, fs := range s.byKey {
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// FuncKey builds the fact key of a package-level function ("pkg.Fn") or
// method ("pkg.Recv.Fn").
func FuncKey(pkgPath, recv, name string) string {
	if recv == "" {
		return pkgPath + "." + name
	}
	return pkgPath + "." + recv + "." + name
}

// funcObjKey renders a *types.Func to its fact key, or "" when the
// function is unkeyable (no package, or a method on an unnamed type).
func funcObjKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := ""
	if r := sig.Recv(); r != nil {
		named, ok := derefNamed(r.Type())
		if !ok {
			return ""
		}
		recv = named.Obj().Name()
	}
	return FuncKey(fn.Pkg().Path(), recv, fn.Name())
}

// calledFunc resolves a call's callee to a *types.Func for plain and
// selector calls ("pkg.Fn(…)", "recv.Method(…)", "Fn(…)"), including
// explicitly instantiated generic ones ("pkg.Fn[T](…)").
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// derefNamed peels pointers off t and returns the named type beneath.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// sortByDeps returns the packages in dependency order: every package
// appears after all packages it imports (restricted to the given set).
// Ties and independent packages keep a deterministic order (by Path,
// then input index), so Run output never depends on input ordering.
func sortByDeps(pkgs []*Package) []*Package {
	byPath := map[string][]int{}
	for i, p := range pkgs {
		byPath[p.Path] = append(byPath[p.Path], i)
	}
	// deps[i] = indices of pkgs that pkgs[i] imports.
	deps := make([][]int, len(pkgs))
	indegree := make([]int, len(pkgs))
	for i, p := range pkgs {
		seen := map[int]bool{}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path := imp.Path.Value
				path = path[1 : len(path)-1] // strip quotes
				for _, j := range byPath[path] {
					if j != i && !seen[j] {
						seen[j] = true
						deps[j] = append(deps[j], i)
						indegree[i]++
					}
				}
			}
		}
	}
	// Kahn's algorithm, always picking the ready package with the
	// smallest (Path, index).
	ready := []int{}
	for i, d := range indegree {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	pick := func() int {
		best := 0
		for k := 1; k < len(ready); k++ {
			a, b := pkgs[ready[k]], pkgs[ready[best]]
			if a.Path < b.Path || (a.Path == b.Path && ready[k] < ready[best]) {
				best = k
			}
		}
		i := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		return i
	}
	out := make([]*Package, 0, len(pkgs))
	for len(ready) > 0 {
		i := pick()
		out = append(out, pkgs[i])
		for _, j := range deps[i] {
			indegree[j]--
			if indegree[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	// Import cycles cannot happen in compiling Go code, but a partially
	// type-checked set might produce one; append the remainder in input
	// order rather than dropping packages.
	if len(out) < len(pkgs) {
		inOut := map[*Package]bool{}
		for _, p := range out {
			inOut[p] = true
		}
		for _, p := range pkgs {
			if !inOut[p] {
				out = append(out, p)
			}
		}
	}
	return out
}
