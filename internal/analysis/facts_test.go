package analysis

import (
	"strings"
	"testing"
)

const factdepAPath = "flexmap/internal/analysis/testdata/src/factdep/a"

// TestFactPropagationAcrossPackages is the fact-layer end-to-end: facts
// exported while analyzing package a (guarded field, wall-clock reader)
// surface as findings in dependent package b. The packages are passed
// importer-first, so the test also proves RunFacts reorders them by
// dependency before analyzing.
func TestFactPropagationAcrossPackages(t *testing.T) {
	a := loadTestPkg(t, "testdata/src/factdep/a", factdepAPath)
	b := loadTestPkg(t, "testdata/src/factdep/b", "flexmap/internal/workload/fdep")
	diags, facts := RunFacts([]*Package{b, a}, []*Analyzer{Lockheld, Timescope})

	for _, want := range []struct{ key, name, detail string }{
		{FieldKey(factdepAPath, "Shared", "Count"), FactGuardedBy, "Mu"},
		{FuncKey(factdepAPath, "", "WallNow"), FactWallClock, "via WallNow"},
	} {
		f, ok := facts.Lookup(want.key, want.name)
		if !ok {
			t.Errorf("fact %q %q not exported", want.key, want.name)
			continue
		}
		if f.Detail != want.detail {
			t.Errorf("fact %q %q: detail = %q, want %q", want.key, want.name, f.Detail, want.detail)
		}
	}

	counts := map[string]int{}
	for _, d := range diags {
		if !strings.Contains(d.File, "factdep/b") {
			t.Errorf("finding outside package b: %s", d)
		}
		counts[d.Analyzer]++
	}
	for _, name := range []string{"lockheld", "timescope"} {
		if counts[name] != 1 {
			t.Errorf("want exactly 1 %s finding in package b, got %d", name, counts[name])
		}
	}
}

// TestFactDepWant checks the same scenario against want comments, with
// the importing package listed first.
func TestFactDepWant(t *testing.T) {
	runWantPkgs(t, []wantPkg{
		{"testdata/src/factdep/b", "flexmap/internal/workload/fdep"},
		{"testdata/src/factdep/a", factdepAPath},
	}, Lockheld, Timescope)
}

// TestSortByDeps pins the ordering contract directly: the imported
// package comes out before its importer regardless of input order.
func TestSortByDeps(t *testing.T) {
	a := loadTestPkg(t, "testdata/src/factdep/a", factdepAPath)
	b := loadTestPkg(t, "testdata/src/factdep/b", "flexmap/internal/workload/fdep")
	for _, input := range [][]*Package{{a, b}, {b, a}} {
		sorted := sortByDeps(input)
		if len(sorted) != 2 || sorted[0] != a || sorted[1] != b {
			t.Errorf("sortByDeps(%s, %s): imported package not first", input[0].Path, input[1].Path)
		}
	}
}

// TestFactStoreDedupes: re-exporting the same (key, name, analyzer)
// keeps the first detail, and All() is sorted.
func TestFactStoreDedupes(t *testing.T) {
	s := NewFactStore()
	s.Export(Fact{Key: "p.F", Name: "wall-clock", Detail: "first", Analyzer: "timescope"})
	s.Export(Fact{Key: "p.F", Name: "wall-clock", Detail: "second", Analyzer: "timescope"})
	s.Export(Fact{Key: "a.B", Name: "guarded-by", Detail: "mu", Analyzer: "lockheld"})
	all := s.All()
	if len(all) != 2 {
		t.Fatalf("All() returned %d facts, want 2", len(all))
	}
	if all[0].Key != "a.B" || all[1].Key != "p.F" {
		t.Errorf("All() not sorted by key: %v", all)
	}
	if f, _ := s.Lookup("p.F", "wall-clock"); f.Detail != "first" {
		t.Errorf("duplicate export overwrote detail: got %q, want %q", f.Detail, "first")
	}
}
