package parallel

// Race coverage for the whole concurrent-simulation stack. These tests
// are written to run under `go test -race`: they hammer Map with many
// small but *real* simulation jobs so the detector sees every code path
// a parallel experiment harness exercises — cluster construction, DFS
// placement, the event engine, all four map engines, and randutil. Any
// shared mutable state anywhere in that stack shows up here as a race
// report long before it corrupts an experiment table.

import (
	"fmt"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

// simRace runs count tiny simulations concurrently, cycling through the
// engines and cluster profiles, and returns the JCT of each.
func simRace(t *testing.T, count, workers int) []float64 {
	t.Helper()
	engines := []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.HadoopNoSpec, SplitMB: 64},
		{Kind: runner.SkewTune, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
	factories := []runner.ClusterFactory{
		func() (*cluster.Cluster, cluster.Interferer) { return cluster.Homogeneous(3), nil },
		func() (*cluster.Cluster, cluster.Interferer) { return cluster.Heterogeneous6(), nil },
		func() (*cluster.Cluster, cluster.Interferer) {
			c, inf := cluster.Virtual20(11)
			return c, inf
		},
		func() (*cluster.Cluster, cluster.Interferer) { return cluster.MultiTenant40(0.2, 5) },
	}
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("race-%d/%s", i, engines[i%len(engines)])
	}
	out, err := Map(workers, names, func(i int) (float64, error) {
		eng := engines[i%len(engines)]
		factory := factories[(i/len(engines))%len(factories)]
		spec, err := puma.Spec(puma.Grep, "input", 2)
		if err != nil {
			return 0, err
		}
		res, err := runner.Run(runner.Scenario{
			Name:      fmt.Sprintf("race-%d", i),
			Cluster:   factory,
			Seed:      int64(7 + i%5), // a few jobs share seeds on purpose
			InputSize: 16 * 8 * runner.MB,
		}, spec, eng)
		if err != nil {
			return 0, err
		}
		return float64(res.JCT()), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRaceHammerSimulations is the main -race workout: many concurrent
// full simulations across all engines and cluster profiles.
func TestRaceHammerSimulations(t *testing.T) {
	count := 48
	if testing.Short() {
		count = 16
	}
	jcts := simRace(t, count, 8)
	for i, jct := range jcts {
		if jct <= 0 {
			t.Fatalf("job %d reported non-positive JCT %v", i, jct)
		}
	}
}

// TestRaceDeterminismUnderContention re-runs the same grid at several
// worker counts; identical JCT vectors prove concurrent runs share no
// random or scheduling state.
func TestRaceDeterminismUnderContention(t *testing.T) {
	const count = 16
	want := simRace(t, count, 1)
	for _, workers := range []int{0, 4, count} {
		got := simRace(t, count, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: job %d JCT %v != serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRacePoolInternals hammers Map itself (no simulations) with many
// cheap jobs and a progress callback at several worker counts, checking
// every result lands in its own slot.
func TestRacePoolInternals(t *testing.T) {
	const n = 200
	work := func(i int) float64 {
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += float64(i*k) / 7
		}
		return sum
	}
	for _, workers := range []int{2, 8, 32} {
		calls := 0
		got, err := Map(workers, jobNames(n), func(i int) (float64, error) {
			return work(i), nil
		}, func(int, int) { calls++ })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != work(i) {
				t.Fatalf("workers=%d: result %d = %v, want %v", workers, i, v, work(i))
			}
		}
		if calls != n {
			t.Fatalf("workers=%d: progress called %d times, want %d", workers, calls, n)
		}
	}
}
