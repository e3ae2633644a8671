package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// childResult is one simulation's report, sent from the child process to
// the parent as JSON.
type childResult struct {
	Err    string  `json:"err,omitempty"`
	Digest string  `json:"digest"`
	Events uint64  `json:"events"`
	Sims   int     `json:"sims"`
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	RSSMB  float64 `json:"rss_mb"`
	// Traced runs only: fired-event spans by event name, direct spans and
	// counts, and CPU profile samples by module.
	Fires   map[string]fireJSON `json:"fires,omitempty"`
	Metrics map[string]float64  `json:"metrics,omitempty"`
	Samples map[string]int      `json:"samples,omitempty"`
}

type fireJSON struct {
	Calls int     `json:"calls"`
	MS    float64 `json:"ms"`
}

// runChild runs one simulation. A traced run also profiles the CPU and
// counts allocations over the simulation call.
func runChild(w workloadDef, sim string, seed int64, traced bool) childResult {
	p := newProbe(traced)
	var prof bytes.Buffer
	var before, after runtime.MemStats
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return childResult{Err: err.Error()}
		}
		p.onEnd = func() {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&after)
		}
	}
	out, err := w.run(sim, seed, p)
	if err != nil {
		return childResult{Err: err.Error()}
	}
	res := childResult{
		Digest: out.digest,
		Events: out.events,
		Sims:   p.sims,
		WallS:  p.stop.Sub(p.start).Seconds(),
		SetupS: p.setup().Seconds(),
	}
	if res.Sims == 0 {
		res.Sims = 1
	}
	// Where the harness exposes no fired event, set-up is the workload's
	// DFS placement, timed on its own.
	if res.SetupS == 0 && !traced {
		if res.SetupS, err = placeSeconds(w, seed, setupReps); err != nil {
			return childResult{Err: err.Error()}
		}
	}
	if !traced {
		if res.RSSMB, err = peakRSSMB(); err != nil {
			return childResult{Err: err.Error()}
		}
		return res
	}
	if sim == w.sims[0] {
		s, err := placeSeconds(w, seed, 1)
		if err != nil {
			return childResult{Err: err.Error()}
		}
		p.metrics["dfs.place_ms"] = 1e3 * s
	}
	res.Fires = p.fires
	p.metrics["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.metrics["allocs"] = float64(after.Mallocs - before.Mallocs)
	p.metrics["gc_cycles"] = float64(after.NumGC - before.NumGC)
	res.Metrics = p.metrics
	samples, err := moduleSamples(prof.Bytes())
	if err != nil {
		return childResult{Err: err.Error()}
	}
	res.Samples = samples
	return res
}

// setupReps is how many times a child repeats a placement it reports as
// set-up time.
const setupReps = 9

// placeSeconds times the workload's DFS placement reps times and returns
// the median.
func placeSeconds(w workloadDef, seed int64, reps int) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := w.place(seed); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// peakRSSMB is the process's peak resident set, VmHWM in
// /proc/self/status. rusage's Maxrss would not do: Linux carries the
// resident set of the address space a child had before exec, the
// parent's, into it.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}
