// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark regenerates the corresponding experiment at a reduced input
// scale (so `go test -bench=.` completes in minutes) and reports the
// headline quantity of that figure as a custom metric — e.g. FlexMap's
// JCT gain over stock Hadoop for Fig. 5, or its normalized JCT at 40%
// slow nodes for Fig. 8. Run cmd/paperfigs -scale 1 for paper-scale
// numbers.
package flexmap

import (
	"testing"

	"flexmap/internal/experiments"
	"flexmap/internal/puma"
)

// benchScale shrinks Table II inputs for benchmarking.
const benchScale = 16

func benchCfg(benches ...puma.Benchmark) experiments.Config {
	return experiments.Config{Seed: 42, Scale: benchScale, Benchmarks: benches}
}

// cell reads a table cell's value and fails the benchmark when a name
// matches nothing, so a misspelled name cannot report 0.
func cell(b *testing.B, t *experiments.Table, panel, row, column string) float64 {
	b.Helper()
	c, ok := t.Lookup(panel, row, column)
	if !ok {
		b.Fatalf("%q has no cell (panel %q, row %q, column %q)", t.Title, panel, row, column)
	}
	return c.Value
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableII(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1MapRuntimeDistributions(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		spread = cell(b, r, "", "virtual", "max/min")
	}
	b.ReportMetric(spread, "virt-max/min")
}

func BenchmarkFig2StaticBindingDemo(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		share = cell(b, r, "", "flexmap", "fast share")
	}
	b.ReportMetric(share, "flex-fast-share-%")
}

func BenchmarkFig3TaskSizeStudy(b *testing.B) {
	var prod64 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		prod64 = cell(b, r, "b,c", "64MB", "productivity")
	}
	b.ReportMetric(prod64, "prod@64MB")
}

// benchmarkFig5 reports FlexMap's JCT gain in percent over hadoop-64m on
// wordcount: one minus its normalized JCT.
func benchmarkFig5(b *testing.B, clusterName string) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig56(benchCfg(puma.WordCount, puma.Grep, puma.HistogramRatings), clusterName)
		if err != nil {
			b.Fatal(err)
		}
		gain = (1 - cell(b, r.Fig5, clusterName, puma.WordCount.Short(), "flexmap")) * 100
		_ = r.RenderFig5()
	}
	b.ReportMetric(gain, "flex-gain-%")
}

// benchmarkFig6 reports FlexMap's job efficiency on wordcount.
func benchmarkFig6(b *testing.B, clusterName string) {
	var eff float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig56(benchCfg(puma.WordCount, puma.Grep, puma.HistogramRatings), clusterName)
		if err != nil {
			b.Fatal(err)
		}
		eff = cell(b, r.Fig6, clusterName, puma.WordCount.Short(), "flexmap")
		_ = r.RenderFig6()
	}
	b.ReportMetric(eff, "flex-eff")
}

func BenchmarkFig5PhysicalJCT(b *testing.B) { benchmarkFig5(b, "physical") }
func BenchmarkFig5VirtualJCT(b *testing.B)  { benchmarkFig5(b, "virtual") }
func BenchmarkFig6PhysicalEff(b *testing.B) { benchmarkFig6(b, "physical") }
func BenchmarkFig6VirtualEff(b *testing.B)  { benchmarkFig6(b, "virtual") }

func BenchmarkOverheadHomogeneous(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		penalty = cell(b, r, "", "", "penalty")
	}
	b.ReportMetric(penalty, "flex-penalty-%")
}

func BenchmarkFig7SizingTrace(b *testing.B) {
	var fastPeak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		fastPeak = cell(b, r, "physical", "", "fast peak BUs")
	}
	b.ReportMetric(fastPeak, "fast-peak-BUs")
}

func BenchmarkFig8MultiTenantSweep(b *testing.B) {
	var norm40 float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{
			Seed: 42, Scale: benchScale * 4,
			Benchmarks: []puma.Benchmark{puma.WordCount, puma.Grep},
		}
		r, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// FlexMap's mean normalized JCT over the benchmarks.
		sum := 0.0
		for _, bench := range cfg.Benchmarks {
			sum += cell(b, r, "40%", bench.Short(), "flexmap")
		}
		norm40 = sum / float64(len(cfg.Benchmarks))
	}
	b.ReportMetric(norm40, "flex-norm@40%")
}

// BenchmarkSingleRun measures raw simulator throughput: one wordcount on
// the physical cluster under FlexMap.
func BenchmarkSingleRun(b *testing.B) {
	spec, err := PUMASpec(WordCount, 48)
	if err != nil {
		b.Fatal(err)
	}
	sc := Scenario{
		Name:      "bench",
		Cluster:   ClusterPhysical12,
		Seed:      42,
		InputSize: 20 * GB / benchScale,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc, spec, Engine{Kind: FlexMap}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation measures the FlexMap design-choice study (extension
// experiment; see EXPERIMENTS.md).
func BenchmarkAblation(b *testing.B) {
	var verticalLoss float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablation(experiments.Config{Seed: 42, Scale: benchScale * 4})
		if err != nil {
			b.Fatal(err)
		}
		verticalLoss = cell(b, r, "mt20-fine", "flexmap[no-vertical]", "vs full")
	}
	b.ReportMetric(verticalLoss, "no-vertical-loss-%")
}

// BenchmarkSkew measures the data-skew extension experiment.
func BenchmarkSkew(b *testing.B) {
	var skewtuneNorm float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Skew(experiments.Config{Seed: 42, Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		skewtuneNorm = cell(b, r, "", "skewtune-64m", "norm")
	}
	b.ReportMetric(skewtuneNorm, "skewtune-norm")
}
