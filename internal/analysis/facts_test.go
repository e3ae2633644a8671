package analysis

import (
	"strings"
	"testing"
)

const factdepAPath = "flexmap/internal/analysis/testdata/src/factdep/a"

// TestFactPropagationAcrossPackages is the fact-layer end-to-end: the
// wall-clock fact exported while analyzing package a surfaces as a
// finding in dependent package b. The packages are passed importer-first,
// so the test also proves RunFacts reorders them by dependency before
// analyzing.
func TestFactPropagationAcrossPackages(t *testing.T) {
	a := loadTestPkg(t, "testdata/src/factdep/a", factdepAPath)
	b := loadTestPkg(t, "testdata/src/factdep/b", "flexmap/internal/workload/fdep")
	diags, facts := RunFacts([]*Package{b, a}, []*Analyzer{Timescope})

	f, ok := facts.Lookup(FuncKey(factdepAPath, "", "WallNow"), FactWallClock)
	if !ok {
		t.Fatal("wall-clock fact for a.WallNow not exported")
	}
	if f.Detail != "via WallNow" {
		t.Errorf("wall-clock fact detail = %q, want %q", f.Detail, "via WallNow")
	}

	if len(diags) != 1 || diags[0].Analyzer != "timescope" || !strings.Contains(diags[0].File, "factdep/b") {
		t.Errorf("want exactly 1 timescope finding, in package b; got %v", diags)
	}
}

// TestFactDepWant checks the same scenario against want comments, with
// the importing package listed first.
func TestFactDepWant(t *testing.T) {
	runWantPkgs(t, []wantPkg{
		{"testdata/src/factdep/b", "flexmap/internal/workload/fdep"},
		{"testdata/src/factdep/a", factdepAPath},
	}, Timescope)
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
	s.Export(Fact{Key: "a.B", Name: "wall-clock", Detail: "via B", Analyzer: "timescope"})
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
