package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"flexmap/internal/maputil"
)

// specFile is read from the directory the benchmark runs in, the root of
// the repository: it names every metric with its unit and bound.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is the parts of the recorded baseline a run is compared with:
// the digests at the recorded seed and the end-to-end medians.
type baseline struct {
	Seed     int64                                          `json:"seed"`
	Digests  map[string]string                              `json:"digests"`
	EndToEnd map[string]map[string]struct{ Median float64 } `json:"end_to_end"`
}

func loadBaseline() (*baseline, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	return &b, nil
}

// result is the JSON object the last line of stdout carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric the spec names for this kind of run, one
// per line with its quartiles and sample count, the digests, and then
// the result line. An end-to-end metric the run did not measure, or a
// measured metric the spec does not name, is an error; a per-layer
// metric whose layer did no work reads 0.
func (r *run) report(w io.Writer, spec *benchSpec, base *baseline) error {
	metrics := spec.EndToEnd
	if r.traced {
		metrics = spec.PerLayer
	}
	for name := range r.samples {
		if !slices.ContainsFunc(metrics, func(m metricSpec) bool { return m.Name == name }) {
			return fmt.Errorf("%s: measured metric %s is not in %s", r.workload, name, specFile)
		}
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		xs, ok := r.samples[m.Name]
		if !ok && !r.traced {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, m.Name)
		}
		v := median(xs)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-40s %14.6g %-6s q1 %.6g  q3 %.6g  n=%d", m.Name, v, m.Unit, q1, q3, len(xs))
		if b, ok := base.EndToEnd[r.workload][m.Name]; ok && !r.traced {
			verdict := "within"
			if !withinBound(b.Median, v, m.Bound, m.Better == "lower") {
				verdict = "outside"
			}
			fmt.Fprintf(w, "  baseline %.6g, %s its %.0f%% bound", b.Median, verdict, 100*m.Bound)
		}
		fmt.Fprintln(w)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, sim := range maputil.SortedKeys(r.digests) {
		key := r.workload + "/" + sim
		fmt.Fprintf(w, "sim_digest %-28s %s", key, r.digests[sim])
		if want, ok := base.Digests[key]; ok && r.seed == base.Seed && want != r.digests[sim] {
			fmt.Fprintf(w, "  digest_changed from %s", want)
		}
		fmt.Fprintln(w)
	}
	if len(r.refs) > 0 {
		lo, hi := quartiles(r.refs)
		fmt.Fprintf(w, "reference kernel %.4f s (q1 %.4f  q3 %.4f  n=%d), %.2f s on the recorded host\n",
			median(r.refs), lo, hi, len(r.refs), refNominalS)
		lo, hi = quartiles(r.unscaled)
		fmt.Fprintf(w, "wall_s before scaling %.6g s (q1 %.6g  q3 %.6g  n=%d)\n", median(r.unscaled), lo, hi, len(r.unscaled))
	}
	fmt.Fprintf(w, "failed_ops %d of %d\n", r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
