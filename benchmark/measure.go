package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"flexmap/internal/maputil"
)

// run is everything one invocation measured.
type run struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	// samples holds each metric's values, one per round for the
	// end-to-end metrics and a single value for the per-layer ones.
	samples map[string][]float64
	digests map[string]string // simulation → sim_digest
	// An untraced run times the reference kernel before its first
	// simulation and after each one; refs holds every time, and unscaled
	// each round's wall time before scaling.
	ref            *reference
	refs, unscaled []float64
}

// measure runs a workload's rounds and checks every simulation: it must
// return no error, pass the workload's invariants, and give the same
// digest in every round.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool) (*run, error) {
	r := &run{workload: w.name, seed: seed, traced: traced, samples: map[string][]float64{}, digests: map[string]string{}}
	if traced {
		sims, err := r.round(w, 0, false)
		if err != nil {
			return nil, err
		}
		r.addRound(sims)
		return r, r.addTraced(w, sims)
	}
	start := time.Now()
	r.ref = newReference()
	r.refs = append(r.refs, r.ref.seconds())
	for i := 0; ; i++ {
		roundStart := time.Now()
		sims, err := r.round(w, i, false)
		if err != nil {
			return nil, err
		}
		r.addRound(sims)
		if time.Since(start)+time.Since(roundStart) > budget {
			return r, nil
		}
	}
}

// round runs each simulation of the workload once, starting the order at
// a different simulation in each round. In an untraced run each
// simulation's speed is refNominalS over the mean of the reference
// kernel's times just before and just after it.
func (r *run) round(w workloadDef, i int, traced bool) ([]simRun, error) {
	var out []simRun
	for k := range w.sims {
		sim := w.sims[(i+k)%len(w.sims)]
		s, err := spawn(w, sim, r.seed, traced)
		if err != nil {
			return nil, err
		}
		s.speed = 1
		if r.ref != nil {
			before := r.refs[len(r.refs)-1]
			r.refs = append(r.refs, r.ref.seconds())
			s.speed = refNominalS / ((before + r.refs[len(r.refs)-1]) / 2)
		}
		r.attempted++
		if err := r.check(s); err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s failed: %v\n", w.name, sim, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *run) check(s simRun) error {
	if s.res.Err != "" {
		return fmt.Errorf("%s", s.res.Err)
	}
	if prev, ok := r.digests[s.sim]; ok && prev != s.res.Digest {
		return fmt.Errorf("sim_digest %s differs from an earlier round's %s", s.res.Digest, prev)
	}
	r.digests[s.sim] = s.res.Digest
	return nil
}

// addRound records an untraced round's end-to-end metrics, its times at
// the reference speed.
func (r *run) addRound(sims []simRun) {
	var wall, unscaled, setup, rss float64
	for _, s := range sims {
		wall += s.res.WallS * s.speed
		unscaled += s.res.WallS
		setup += s.res.SetupS * s.speed
		rss = max(rss, s.res.RSSMB)
	}
	r.unscaled = append(r.unscaled, unscaled)
	r.samples["wall_s"] = append(r.samples["wall_s"], wall)
	r.samples["setup_s"] = append(r.samples["setup_s"], setup)
	r.samples["peak_rss_mb"] = append(r.samples["peak_rss_mb"], rss)
}

// addTraced runs the traced round after one untraced round and records
// the per-layer metrics.
func (r *run) addTraced(w workloadDef, untraced []simRun) error {
	sims, err := r.round(w, 0, true)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	var wall0, setup0, wall float64
	var events uint64
	for _, s := range untraced {
		wall0 += s.res.WallS
		setup0 += s.res.SetupS
		events += s.res.Events
	}
	fires := map[string]fireJSON{}
	samples := map[string]int{}
	for _, s := range sims {
		wall += s.res.WallS
		m["sims"] += float64(s.res.Sims)
		for _, k := range maputil.SortedKeys(s.res.Metrics) {
			m[k] += s.res.Metrics[k]
		}
		for _, name := range maputil.SortedKeys(s.res.Fires) {
			f, key := s.res.Fires[name], fireKey(name)
			agg := fires[key]
			agg.Calls += f.Calls
			agg.MS += f.MS
			fires[key] = agg
		}
		for mod, n := range s.res.Samples {
			// A package added after profModules was written counts as
			// other, so the shares still sum to 100%.
			if !slices.Contains(profModules, mod) {
				mod = "other"
			}
			samples[mod] += n
		}
	}
	m["sim_events"] = float64(events)
	m["trace_overhead_pct"] = 100 * (wall/wall0 - 1)
	if events > 0 {
		m["us_per_event"] = 1e6 * (wall0 - setup0) / float64(events)
		m["allocs_per_event"] = m["allocs"] / float64(events)
	}
	delete(m, "allocs")
	for _, name := range firedNames {
		f := fires[name]
		m["fire."+name+".calls"] = float64(f.Calls)
		m["fire."+name+".ms"] = f.MS
		if f.Calls > 0 {
			m["fire."+name+".us_per_call"] = 1e3 * f.MS / float64(f.Calls)
		}
	}
	total := 0
	for _, n := range samples {
		total += n
	}
	m["prof.samples"] = float64(total)
	for _, mod := range profModules {
		if total > 0 {
			m["prof."+mod+".share"] = 100 * float64(samples[mod]) / float64(total)
		}
	}
	r.samples = map[string][]float64{}
	for k, v := range m {
		r.samples[k] = []float64{v}
	}
	return nil
}
