// Package mr defines the MapReduce job model shared by every execution
// engine in this repository: job specifications, map/reduce function
// types for live (real-data) execution, task attempt records, and job
// results with the bookkeeping the paper's metrics need.
package mr

import (
	"fmt"
	"math"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// Mapper is a user map function for live execution. It receives the raw
// bytes of one block unit and emits intermediate key/value pairs.
type Mapper func(block []byte, emit func(key, value string))

// Reducer is a user reduce function for live execution. It receives one
// key with all its intermediate values and emits final pairs.
type Reducer func(key string, values []string, emit func(key, value string))

// JobSpec describes a MapReduce job. Cost fields drive the calibrated
// simulation model; Mapper/Reducer optionally attach real functions that
// run over real DFS content so functional output can be validated.
type JobSpec struct {
	Name      string
	InputFile string

	// NumReducers is the number of reduce tasks (0 = map-only job).
	NumReducers int

	// MapCost is the relative CPU cost of mapping one input byte, with
	// wordcount = 1.0. Higher values model compute-heavy mappers (kmeans).
	MapCost float64

	// ShuffleRatio is intermediate output bytes per input byte. Map-heavy
	// jobs (grep) are near 0; tera-sort is 1.0.
	ShuffleRatio float64

	// ReduceCost is the relative CPU cost of reducing one intermediate
	// byte, with wordcount = 1.0.
	ReduceCost float64

	Mapper  Mapper
	Reducer Reducer
}

// Validate reports configuration errors a job spec would trip over later.
func (s *JobSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("mr: job has no name")
	case s.InputFile == "":
		return fmt.Errorf("mr: job %q has no input file", s.Name)
	case s.NumReducers < 0:
		return fmt.Errorf("mr: job %q has negative reducer count", s.Name)
	case !(s.MapCost > 0) || math.IsInf(s.MapCost, 1):
		return fmt.Errorf("mr: job %q has map cost %v, want positive and finite", s.Name, s.MapCost)
	case !(s.ShuffleRatio >= 0) || math.IsInf(s.ShuffleRatio, 1):
		return fmt.Errorf("mr: job %q has shuffle ratio %v, want non-negative and finite", s.Name, s.ShuffleRatio)
	case !(s.ReduceCost >= 0) || math.IsInf(s.ReduceCost, 1):
		return fmt.Errorf("mr: job %q has reduce cost %v, want non-negative and finite", s.Name, s.ReduceCost)
	}
	return nil
}

// TaskType distinguishes map and reduce attempts.
type TaskType int

// Task types.
const (
	MapTask TaskType = iota
	ReduceTask
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	if t == MapTask {
		return "map"
	}
	return "reduce"
}

// AttemptRecord captures one task attempt for metric computation.
type AttemptRecord struct {
	Task        string // stable task identifier, e.g. "map-0007"
	Type        TaskType
	Node        cluster.NodeID
	Start       sim.Time
	End         sim.Time
	Overhead    sim.Duration // container allocation + JVM startup
	Effective   sim.Duration // input read + compute + output write
	Bytes       int64        // input bytes (map) or shuffle bytes (reduce)
	BUs         int          // block units in the input split (map only)
	LocalBUs    int          // BUs that were node-local at bind time
	Wave        int          // execution wave on the node (map only)
	Speculative bool         // speculative copy
	Killed      bool         // stopped before completion (lost the race, or repartitioned)
	Crashed     bool         // terminated by a node crash or a drain preemption
}

// Runtime returns the attempt's total runtime.
func (a *AttemptRecord) Runtime() sim.Duration {
	return sim.Duration(a.End - a.Start)
}

// Productivity returns Eq. 1 of the paper: effective / total runtime.
func (a *AttemptRecord) Productivity() float64 {
	total := a.Runtime()
	if total <= 0 {
		return 0
	}
	return float64(a.Effective) / float64(total)
}

// JobResult aggregates one run of a job under one engine.
type JobResult struct {
	Job     string
	Engine  string
	Cluster string

	Submitted      sim.Time
	MapPhaseStart  sim.Time
	MapPhaseEnd    sim.Time
	ReducePhaseEnd sim.Time
	Finished       sim.Time

	// AvailableContainers is the denominator of Eq. 2 (total slots).
	AvailableContainers int

	Attempts []AttemptRecord

	// Output holds merged reduce output for live jobs (nil otherwise).
	Output map[string]string

	// RemoteBytesRead counts input bytes fetched from non-local replicas.
	RemoteBytesRead int64
	// RepartitionBytes counts bytes SkewTune re-scanned and moved.
	RepartitionBytes int64
	// SpeculativeLaunches counts speculative attempts started.
	SpeculativeLaunches int

	// Fault-tolerance accounting (all zero without fault injection).
	//
	// NodesLost counts heartbeat-timeout loss declarations; NodesRejoined
	// counts down→up transitions the watcher observed (including brief
	// outages shorter than the detection timeout).
	NodesLost     int
	NodesRejoined int
	// AttemptsCrashed counts task attempts terminated by node crashes or
	// drain preemptions.
	AttemptsCrashed int
	// Preemptions counts map attempts preempted by elastic drains.
	Preemptions int
	// TaskRetries counts recovery re-queues: whole fixed splits for stock
	// Hadoop, BU batches returned to the binding maps for FlexMap.
	TaskRetries int
	// ReprocessedBytes counts input bytes re-queued for execution by
	// recovery — the work the cluster does twice. Stock re-queues whole
	// splits; FlexMap only the BUs a crashed elastic task had not finished
	// plus any committed output lost with a node's disk.
	ReprocessedBytes int64
	// OutputBUsLost counts committed map-output BUs lost with crashed
	// nodes before the shuffle completed (each forces re-execution).
	OutputBUsLost int

	// Failed marks a run aborted by recovery policy (a task exhausted its
	// retry budget). FailReason says why.
	Failed     bool
	FailReason string
}

// Goodput returns the fraction of useful map input work: input bytes over
// input plus re-processed bytes. 1.0 for a fault-free run.
func (r *JobResult) Goodput(inputBytes int64) float64 {
	total := inputBytes + r.ReprocessedBytes
	if total <= 0 {
		return 1.0
	}
	return float64(inputBytes) / float64(total)
}

// JCT returns the job completion time.
func (r *JobResult) JCT() sim.Duration {
	return sim.Duration(r.Finished - r.Submitted)
}

// MapAttempts returns successful (non-killed) map attempts.
func (r *JobResult) MapAttempts() []AttemptRecord {
	var out []AttemptRecord
	for _, a := range r.Attempts {
		if a.Type == MapTask && !a.Killed {
			out = append(out, a)
		}
	}
	return out
}

// ReduceAttempts returns successful reduce attempts.
func (r *JobResult) ReduceAttempts() []AttemptRecord {
	var out []AttemptRecord
	for _, a := range r.Attempts {
		if a.Type == ReduceTask && !a.Killed {
			out = append(out, a)
		}
	}
	return out
}

// SerialRuntime approximates the job's serial runtime as the sum of all
// successful map attempt runtimes, as §II-C of the paper does.
func (r *JobResult) SerialRuntime() sim.Duration {
	var sum sim.Duration
	for i := range r.Attempts {
		if a := &r.Attempts[i]; a.Type == MapTask && !a.Killed {
			sum += a.Runtime()
		}
	}
	return sum
}

// MapPhaseRuntime is the span between the first container starting and the
// last map container stopping.
func (r *JobResult) MapPhaseRuntime() sim.Duration {
	return sim.Duration(r.MapPhaseEnd - r.MapPhaseStart)
}

// Efficiency returns Eq. 2 of the paper:
// serial runtime / (map-phase runtime × available containers).
func (r *JobResult) Efficiency() float64 {
	phase := r.MapPhaseRuntime()
	if phase <= 0 || r.AvailableContainers == 0 {
		return 0
	}
	return float64(r.SerialRuntime()) / (float64(phase) * float64(r.AvailableContainers))
}
