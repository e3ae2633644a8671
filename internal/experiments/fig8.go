package experiments

import (
	"fmt"
	"strings"

	"flexmap/internal/cluster"
	"flexmap/internal/maputil"
	"flexmap/internal/metrics"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// Fig8Fractions are the slow-node fractions of Fig. 8(a)-(d).
var Fig8Fractions = []float64{0.05, 0.10, 0.20, 0.40}

// Fig8Result holds normalized JCTs on the 40-node multi-tenant cluster
// for each slow-node fraction × benchmark × engine.
type Fig8Result struct {
	// Norm[fraction][bench][engine] = JCT / JCT(hadoop-64m).
	Norm map[float64]map[puma.Benchmark]map[string]float64
	// JCT holds the raw values on the same keys.
	JCT       map[float64]map[puma.Benchmark]map[string]float64
	Fractions []float64
	Benches   []puma.Benchmark
	Engines   []string
}

// Fig8 runs the multi-tenant sweep with the Table II "large" inputs.
func Fig8(cfg Config) (*Fig8Result, error) {
	return fig8(cfg, Fig8Fractions)
}

// fig8 runs the sweep over the given slow-node fractions (tests use a
// subset).
func fig8(cfg Config, fractions []float64) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig8Result{
		Norm:      map[float64]map[puma.Benchmark]map[string]float64{},
		JCT:       map[float64]map[puma.Benchmark]map[string]float64{},
		Fractions: fractions,
		Benches:   cfg.Benchmarks,
	}
	for _, eng := range fig8Engines() {
		out.Engines = append(out.Engines, eng.String())
	}
	engines := fig8Engines()
	var jobs []simJob
	for _, frac := range fractions {
		frac := frac
		def := clusterDef{
			name: fmt.Sprintf("multitenant-%d%%", int(frac*100+0.5)),
			factory: func() (*cluster.Cluster, cluster.Interferer) {
				return cluster.MultiTenant40(frac, cfg.Seed)
			},
		}
		for _, bench := range cfg.Benchmarks {
			p, err := puma.GetProfile(bench)
			if err != nil {
				return nil, err
			}
			input := largeInput(p, cfg.Scale)
			for _, eng := range engines {
				bench, eng := bench, eng
				jobs = append(jobs, simJob{fmt.Sprintf("fig8/%s/%s/%s", def.name, bench, eng), func() (*runner.Result, error) {
					return runOneSlots(cfg, def, bench, input, eng)
				}})
			}
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, frac := range fractions {
		out.Norm[frac] = map[puma.Benchmark]map[string]float64{}
		out.JCT[frac] = map[puma.Benchmark]map[string]float64{}
		for _, bench := range cfg.Benchmarks {
			var sums []metrics.Summary
			for range engines {
				sums = append(sums, metrics.Summarize(results[i].JobResult))
				i++
			}
			norm, err := metrics.NormalizeTo(Baseline64, sums)
			if err != nil {
				return nil, err
			}
			out.Norm[frac][bench] = norm
			raw := map[string]float64{}
			for _, s := range sums {
				raw[s.Engine] = s.JCT
			}
			out.JCT[frac][bench] = raw
		}
	}
	return out, nil
}

// Render prints one table per slow fraction, as the paper's four panels.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — normalized JCT on the 40-node multi-tenant cluster\n")
	for _, frac := range r.Fractions {
		fmt.Fprintf(&b, "\n(%d%% slow nodes)\n", int(frac*100+0.5))
		header := append([]string{"benchmark"}, r.Engines...)
		var rows [][]string
		for _, bench := range r.Benches {
			row := []string{bench.Short()}
			for _, engine := range r.Engines {
				row = append(row, fmt.Sprintf("%.2f", r.Norm[frac][bench][engine]))
			}
			rows = append(rows, row)
		}
		b.WriteString(metrics.Table(header, rows))
	}
	b.WriteString("\n(paper: FlexMap ≈ speculation at 5%; FlexMap's gain expands as more nodes slow, up to ~40%)\n")
	return b.String()
}

// MeanFlexMapNorm returns FlexMap's mean normalized JCT across
// benchmarks at one fraction (the Fig. 8 trend statistic).
func (r *Fig8Result) MeanFlexMapNorm(frac float64) float64 {
	m, ok := r.Norm[frac]
	if !ok {
		return 0
	}
	sum, n := 0.0, 0
	// Sorted iteration: float addition order changes the low bits, and
	// this statistic is printed by tests and tools.
	for _, bench := range maputil.SortedKeys(m) {
		if v, ok := m[bench]["flexmap"]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
