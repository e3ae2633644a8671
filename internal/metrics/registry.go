package metrics

import "sort"

// Registry is a run-scoped counters/gauges store. The trace layer bumps
// counters as events are emitted and sets gauges for last-value signals
// (per-node speed, final sim clock); harnesses and CLIs read its Snapshot
// after the run. A nil *Registry is valid and inert, so call
// sites need no tracing-enabled checks.
//
// Registries are single-goroutine like everything else in a run: each
// simulation owns its own registry, and parallel experiment grids give
// every run a private one.
type Registry struct {
	counters map[string]int64
	gauges   map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
	}
}

// Inc adds delta to a counter, creating it at zero.
func (r *Registry) Inc(name string, delta int64) {
	if r == nil {
		return
	}
	r.counters[name] += delta
}

// Set stores a gauge's latest value.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.gauges[name] = v
}

// Counter returns a counter's current value (0 when absent).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// Gauge returns a gauge's current value and whether it was ever set.
func (r *Registry) Gauge(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	v, ok := r.gauges[name]
	return v, ok
}

// Sample is one named metric in a snapshot.
type Sample struct {
	Name    string
	Value   float64
	Counter bool // true for counters, false for gauges
}

// Snapshot returns every counter and gauge sorted by name, so rendering a
// snapshot is deterministic regardless of map iteration order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, 0, len(r.counters)+len(r.gauges))
	for name, v := range r.counters {
		out = append(out, Sample{Name: name, Value: float64(v), Counter: true})
	}
	for name, v := range r.gauges {
		out = append(out, Sample{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
