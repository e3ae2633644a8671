package flexmap

import (
	"math"
	"strings"
	"testing"

	"flexmap/internal/datagen"
)

func TestPublicAPIQuickRun(t *testing.T) {
	sc := Scenario{
		Name:      "api",
		Cluster:   ClusterHeterogeneous6,
		Seed:      1,
		InputSize: 1 * GB,
	}
	spec, err := PUMASpec(WordCount, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT() <= 0 || res.Efficiency() <= 0 || res.Efficiency() > 1 {
		t.Fatalf("metrics out of range: JCT=%v eff=%v", res.JCT(), res.Efficiency())
	}
	if res.Cluster == nil || res.Cluster.Size() != 6 {
		t.Fatal("post-run cluster missing")
	}
}

func TestClusterFactories(t *testing.T) {
	cases := []struct {
		name    string
		factory ClusterFactory
		nodes   int
		hasInf  bool
	}{
		{"physical", ClusterPhysical12, 12, false},
		{"heterogeneous", ClusterHeterogeneous6, 6, false},
		{"homogeneous", ClusterHomogeneous(5), 5, false},
		{"virtual", ClusterVirtual20(1), 20, true},
		{"multitenant", ClusterMultiTenant40(0.2, 1), 40, true},
	}
	for _, tc := range cases {
		c, inf := tc.factory()
		if c.Size() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.name, c.Size(), tc.nodes)
		}
		if (inf != nil) != tc.hasInf {
			t.Errorf("%s: interferer presence = %v, want %v", tc.name, inf != nil, tc.hasInf)
		}
	}
}

// TestBadSlowFractionIsError: a slow fraction outside [0,1], NaN
// included, makes the cluster factory panic; Run reports it as an error.
func TestBadSlowFractionIsError(t *testing.T) {
	spec, err := PUMASpec(WordCount, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), -0.1, 1.5} {
		sc := Scenario{Name: "bad", Cluster: ClusterMultiTenant40(f, 1), Seed: 1, InputSize: 1 * GB}
		_, err := Run(sc, spec, Engine{Kind: FlexMap})
		if err == nil || !strings.Contains(err.Error(), "cluster factory") {
			t.Errorf("slow fraction %v: err = %v, want a cluster factory error", f, err)
		}
	}
}

func TestAllPUMASpecsRunnable(t *testing.T) {
	sc := Scenario{
		Name:      "all-puma",
		Cluster:   ClusterHomogeneous(4),
		Seed:      2,
		InputSize: 512 * MB,
	}
	for _, bench := range []Benchmark{
		WordCount, InvertedIndex, TermVector, Grep,
		KMeans, HistogramMovies, HistogramRatings, TeraSort,
	} {
		spec, err := PUMASpec(bench, 4)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		res, err := Run(sc, spec, Engine{Kind: Hadoop, SplitMB: 64})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if res.JCT() <= 0 {
			t.Fatalf("%s: bad JCT", bench)
		}
	}
}

func TestHeadlineShapeHeterogeneous(t *testing.T) {
	// The repository's reason to exist: on a heterogeneous cluster with
	// strong interference, FlexMap beats stock Hadoop clearly. The paper's
	// full 20 GB input is needed — on tiny inputs FlexMap's sizing ramp
	// dominates, which is exactly the overhead the paper documents.
	sc := Scenario{
		Name:      "headline",
		Cluster:   ClusterVirtual20(7),
		Seed:      42,
		InputSize: 20 * GB,
	}
	clus, _ := sc.Cluster()
	spec, err := PUMASpec(WordCount, clus.TotalSlots())
	if err != nil {
		t.Fatal(err)
	}
	stock, err := Run(sc, spec, Engine{Kind: Hadoop, SplitMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	flex, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if flex.JCT() >= stock.JCT() {
		t.Fatalf("FlexMap (%v) did not beat stock (%v) on the virtual cluster",
			flex.JCT(), stock.JCT())
	}
}

func TestLiveGrepEndToEnd(t *testing.T) {
	data := datagen.Wikipedia(int(2*BUSize), 9)
	sc := Scenario{
		Name:      "live-grep",
		Cluster:   ClusterHomogeneous(3),
		Seed:      9,
		InputData: data,
	}
	spec, err := PUMASpec(Grep, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, spec, Engine{Kind: FlexMap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 {
		t.Fatalf("grep output keys = %d, want 1", len(res.Output))
	}
	if res.Output["data"] == "" || res.Output["data"] == "0" {
		t.Fatalf("grep found no matches: %v", res.Output)
	}
}
