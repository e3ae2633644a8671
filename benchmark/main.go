// Command benchmark is the repository's end-to-end benchmark. It times
// four simulator workloads from outside the simulator, through the public
// calls users make (runner.Run, runner.RunWorkload, experiments.*), and
// checks their outputs.
//
// Usage:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each simulation runs in a child process of its own, one at a time. A
// round runs every simulation of the workload once; rounds repeat while
// another one fits in --seconds, and the end-to-end metrics are medians
// over rounds, with times scaled to a reference speed (see reference.go).
// With --trace 1 the run makes one untraced round and one
// traced round instead and reports the per-layer metrics. The last line
// of stdout is a JSON object with the keys correct, attempted, failed
// and metrics. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: fleet-10k, multijob-200, rack-2000 or paper")
	seed := flag.Int64("seed", 42, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced round")
	child := flag.String("child", "", "run this one simulation of the workload and report it as JSON (used by the parent)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traced))
	}
	if *child != "" {
		res := runChild(w, *child, *seed, *traced == 1)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	base, err := loadBaseline()
	if err != nil {
		fatal(err)
	}
	r, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fatal(err)
	}
	if err := r.report(os.Stdout, spec, base); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// simRun is one simulation as the parent saw it.
type simRun struct {
	sim string
	res childResult
	// speed scales the simulation's times to the reference speed; it is
	// 1 in a traced run.
	speed float64
}

// spawn runs one simulation in a child process and waits for it. A child
// that crashes or reports no result is a failed simulation.
func spawn(w workloadDef, sim string, seed int64, traced bool) (simRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return simRun{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr, "-child", sim)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	run := simRun{sim: sim}
	err = cmd.Run()
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &run.res)
	}
	if err != nil {
		run.res = childResult{Err: fmt.Sprintf("child process: %v", err)}
	}
	return run, nil
}
