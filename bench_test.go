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
		spread = r.VirtualSpread
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
		share = r.FastShare["flexmap"]
	}
	b.ReportMetric(share*100, "flex-fast-share-%")
}

func BenchmarkFig3TaskSizeStudy(b *testing.B) {
	var prod64 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range r.Homogeneous {
			if pt.SplitMB == 64 {
				prod64 = pt.Productivity
			}
		}
	}
	b.ReportMetric(prod64, "prod@64MB")
}

func benchmarkFig56(b *testing.B, clusterName string, fig6 bool) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig56(benchCfg(puma.WordCount, puma.Grep, puma.HistogramRatings), clusterName)
		if err != nil {
			b.Fatal(err)
		}
		g, err := r.FlexMapGain(puma.WordCount, experiments.Baseline64)
		if err != nil {
			b.Fatal(err)
		}
		gain = g
		if fig6 {
			_ = r.RenderFig6()
		} else {
			_ = r.RenderFig5()
		}
	}
	b.ReportMetric(gain, "flex-gain-%")
}

func BenchmarkFig5PhysicalJCT(b *testing.B) { benchmarkFig56(b, "physical", false) }
func BenchmarkFig5VirtualJCT(b *testing.B)  { benchmarkFig56(b, "virtual", false) }
func BenchmarkFig6PhysicalEff(b *testing.B) { benchmarkFig56(b, "physical", true) }
func BenchmarkFig6VirtualEff(b *testing.B)  { benchmarkFig56(b, "virtual", true) }

func BenchmarkOverheadHomogeneous(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		penalty = r.PenaltyPercent
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
		fastPeak = float64(r.Clusters["physical"].Fast.FinalBUs)
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
		norm40 = r.MeanFlexMapNorm(0.40)
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
		verticalLoss = r.LossPercent["mt20-fine"]["no-vertical"]
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
		skewtuneNorm = r.Norm["skewtune-64m"]
	}
	b.ReportMetric(skewtuneNorm, "skewtune-norm")
}
