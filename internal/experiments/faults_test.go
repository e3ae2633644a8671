package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"flexmap/internal/cluster"
	"flexmap/internal/faults"
	"flexmap/internal/puma"
	"flexmap/internal/runner"
)

func TestFaultRateGridMustStartAtZero(t *testing.T) {
	if _, err := faultTolerance(testCfg(), []float64{2, 4}); err == nil {
		t.Fatal("grid without the 0 baseline accepted")
	}
	if _, err := faultTolerance(testCfg(), nil); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// Property: across crash rates, engines and cluster sizes, a run that
// completes has every input BU committed exactly once — no BU lost to a
// crash, none duplicated by recovery or speculation. Rates are scaled
// up to the short test jobs so every run actually takes faults.
func TestFaultPropertyExactlyOnce(t *testing.T) {
	engines := []runner.Engine{
		{Kind: runner.Hadoop, SplitMB: 64},
		{Kind: runner.HadoopNoSpec, SplitMB: 64},
		{Kind: runner.FlexMap},
	}
	spec, err := specFor(puma.WordCount, 4)
	if err != nil {
		t.Fatal(err)
	}
	const input = 2 * runner.GB // 256 BUs
	for _, nodes := range []int{4, 8} {
		for _, rate := range []float64{40, 160} {
			for _, eng := range engines {
				name := fmt.Sprintf("n%d/rate%g/%s", nodes, rate, eng)
				t.Run(name, func(t *testing.T) {
					nodes := nodes
					sc := runner.Scenario{
						Name:      name,
						Cluster:   func() (*cluster.Cluster, cluster.Interferer) { return cluster.Homogeneous(nodes), nil },
						Seed:      42,
						InputSize: input,
						Faults:    faults.Plan{CrashRate: rate},
					}
					res, err := runner.Run(sc, spec, eng)
					var failed *runner.JobFailedError
					if errors.As(err, &failed) {
						// Bounded retries gave the job up — a legitimate
						// outcome at high rates, not an invariant breach.
						t.Logf("job failed (ok at this rate): %v", err)
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if res.NodesLost+res.NodesRejoined+res.AttemptsCrashed == 0 {
						t.Fatalf("rate %g injected no faults; property not exercised", rate)
					}
					want := int(input / (8 * runner.MB))
					if len(res.BUCommits) != want {
						t.Fatalf("commits cover %d BUs, want %d", len(res.BUCommits), want)
					}
					for id, n := range res.BUCommits {
						if n != 1 {
							t.Fatalf("BU %d committed %d times, want exactly 1", id, n)
						}
					}
				})
			}
		}
	}
}

// faultDetCfg shrinks the fault figure for the determinism checks:
// Scale 8 keeps multi-minute virtual jobs, and the rates are scaled so
// crashes, rejoins and recoveries all happen inside them.
func faultDetCfg(parallel int) Config {
	return Config{Seed: 42, Scale: 8, Parallel: parallel}
}

var faultDetRates = []float64{0, 60, 120}

func TestFaultSerialVsParallelDeterminism(t *testing.T) {
	render := func(parallel int) string {
		r, err := faultTolerance(faultDetCfg(parallel), faultDetRates)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	serial := render(1)
	parallel := render(8)
	// This grid is the only rendered output with failed stock rows, so
	// its bytes pin the "failed"/"inf" cells.
	const want = "5a8cc4457d28b8abf8ccb88c28ff30878cdad5595c7a47cf3be60ceb84fdc8bd"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial))); got != want {
		t.Errorf("serial fault grid sha256 = %s, want %s:\n%s", got, want, serial)
	}
	if serial != parallel {
		t.Errorf("parallel fault grid differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "crash/node-hr") {
		t.Errorf("render missing rate column:\n%s", serial)
	}
	// The nonzero rates must actually inject faults, or this test only
	// proves fault-free determinism.
	injected := 0
	r, err := faultTolerance(faultDetCfg(0), faultDetRates)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range faultDetRates[1:] {
		for _, eng := range faultEngines() {
			row := fmt.Sprintf("%g/%s", rate, eng)
			for _, col := range []string{"lost", "crashed", "rejoined"} {
				injected += int(value(t, r, "", row, col))
			}
		}
	}
	if injected == 0 {
		t.Fatal("determinism grid injected no faults")
	}
}

// Acceptance: at the default seed and full scale, FlexMap's makespan
// degrades strictly less than stock's at every nonzero crash rate, and
// its goodput is strictly higher — the figure the paper extension
// claims. (A failed stock run has infinite normalized makespan, so the
// comparison still orders correctly if a rate kills stock.)
func TestFaultToleranceFlexMapDegradesLess(t *testing.T) {
	r, err := FaultTolerance(Config{Seed: 42, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	engines := faultEngines()
	for _, rate := range FaultRates[1:] {
		stock := fmt.Sprintf("%g/%s", rate, engines[0])
		flex := fmt.Sprintf("%g/%s", rate, engines[1])
		if f, s := value(t, r, "", flex, "x(no-fault)"), value(t, r, "", stock, "x(no-fault)"); f >= s {
			t.Errorf("rate %g: flexmap degradation %.2f not below stock %.2f", rate, f, s)
		}
		if f, s := value(t, r, "", flex, "goodput"), value(t, r, "", stock, "goodput"); f <= s {
			t.Errorf("rate %g: flexmap goodput %.3f not above stock %.3f", rate, f, s)
		}
		if value(t, r, "", flex, "lost") == 0 {
			t.Errorf("rate %g injected no node loss into flexmap", rate)
		}
	}
}

// Race hammer: many concurrent fault-injected runs sharing nothing.
// Meaningful under -race (the CI race job runs this package).
func TestFaultGridRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer skipped in -short")
	}
	cfg := Config{Seed: 7, Scale: 16, Parallel: 12}
	first, err := faultTolerance(cfg, []float64{0, 90, 90 * 2, 90 * 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := faultTolerance(cfg, []float64{0, 90, 90 * 2, 90 * 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Render() != second.Render() {
		t.Error("two hammer runs disagree")
	}
}
