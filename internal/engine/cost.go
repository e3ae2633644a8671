// Package engine implements the MapReduce execution machinery shared by
// every ApplicationMaster in this repository: the calibrated task cost
// model, dynamic-speed work execution, map-attempt lifecycle, shuffle
// accounting, the reduce phase, and the stock Hadoop AM.
package engine

import (
	"flexmap/internal/sim"
)

// MB is one megabyte in bytes.
const MB int64 = 1024 * 1024

// The calibrated execution-cost model. The constants are chosen so an
// 8 MB map task on a speed-1.0 node has productivity ≈ 0.28 and a 64 MB
// task ≈ 0.76, matching Fig. 3(b,c) of the paper.
const (
	// containerAlloc is the YARN container allocation latency.
	containerAlloc sim.Duration = 0.5
	// jvmStartup is the task JVM spin-up time.
	jvmStartup sim.Duration = 1.5
	// Overhead is the fixed per-attempt execution overhead (the
	// non-effective part of a task's runtime in Eq. 1).
	Overhead = containerAlloc + jvmStartup
	// BaseIPS is the input processing speed, in bytes/second, of a
	// speed-1.0 node running a MapCost-1.0 job.
	BaseIPS float64 = float64(10 * MB)
	// SpillFactor is the extra fractional map cost per GB of task input,
	// modeling Hadoop's multi-round sort-spill-merge for inputs beyond
	// the in-memory sort buffer (io.sort.mb): a 512 MB task costs ~15%
	// more per byte than a tiny one. It makes task growth saturate
	// instead of rewarding unbounded sizes.
	SpillFactor float64 = 0.3
)

// gb is one gigabyte in bytes, as a float for rate math.
const gb = float64(1024 * MB)

// SpillMultiplier returns the per-byte cost multiplier for a task of the
// given input size.
func SpillMultiplier(bytes int64) float64 {
	return 1 + SpillFactor*float64(bytes)/gb
}

// MapEffective returns the effective (compute-only) duration for mapping
// `bytes` input bytes at the given cost multiplier on a node running at
// `speed`, excluding any remote-fetch time.
func MapEffective(bytes int64, mapCost, speed float64) sim.Duration {
	return sim.Duration(float64(bytes) * mapCost * SpillMultiplier(bytes) / (BaseIPS * speed))
}

// Productivity predicts Eq. 1 for a map of `bytes` at constant speed.
func Productivity(bytes int64, mapCost, speed float64) float64 {
	eff := MapEffective(bytes, mapCost, speed)
	return float64(eff) / float64(eff+Overhead)
}
