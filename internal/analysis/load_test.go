package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadDedupesPatterns: naming the same package through a relative
// and an absolute pattern loads it once.
func TestLoadDedupesPatterns(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	abs, err := filepath.Abs("testdata/src/factdep/a")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("testdata/src/factdep/a", abs)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages for one directory named twice, want 1", len(pkgs))
	}
}

// TestRunDedupesDuplicatePackages: when the same package is loaded twice
// anyway (e.g. through LoadDir), Run reports each finding once.
func TestRunDedupesDuplicatePackages(t *testing.T) {
	p1 := loadTestPkg(t, "testdata/src/detrand", "flexmap/internal/sim/dtest")
	p2 := loadTestPkg(t, "testdata/src/detrand", "flexmap/internal/sim/dtest")
	once := Run([]*Package{p1}, []*Analyzer{Detrand})
	twice := Run([]*Package{p1, p2}, []*Analyzer{Detrand})
	if len(once) == 0 {
		t.Fatal("detrand testdata produced no findings")
	}
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("duplicate package changed output: once=%d findings, twice=%d", len(once), len(twice))
	}
}

// TestLoadSkipsNestedModules: a recursive pattern leaves out directories
// that carry their own go.mod, as the go tool's "./..." does.
func TestLoadSkipsNestedModules(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	root := t.TempDir()
	files := map[string]string{
		"outer.go":        "package outer\n",
		"nested/go.mod":   "module nested\n",
		"nested/inner.go": "package inner\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := loader.Load(root + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Name() != "outer" {
		t.Fatalf("Load returned %d packages, want only the outer one", len(pkgs))
	}
}
