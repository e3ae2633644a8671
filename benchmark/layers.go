package main

import "slices"

// firedNames lists the fired events the per-layer table reports, with
// the module that schedules each. The time from one fired event to the
// next is charged to the first event's name; every name not listed here
// is charged to fire.other.
var firedNames = []string{
	"nm-heartbeat",  // yarn: NodeManager heartbeats, the RM offer loop into each AM
	"nm-liveness",   // yarn: NodeWatcher's liveness sweep
	"heartbeat",     // core: SpeedMonitor's progress sweep
	"work-done",     // engine: a map attempt's input is processed
	"map-overhead",  // engine: container start-up before a map runs
	"map-fetch",     // engine: remote input fetch on the flat network
	"locality-wait", // engine: stock delay scheduling
	"map-retry",     // engine: stock re-queue after a crash
	"reduce-fetch",  // engine: shuffle copy into a reducer
	"net-flow-done", // net: a fabric flow ends and max-min shares are recomputed
	"other",
}

// fireKey names the fire.<name>.* metrics an event's span is charged to.
func fireKey(event string) string {
	if event != "other" && slices.Contains(firedNames, event) {
		return event
	}
	return "other"
}

// profModules lists, sorted, the prof.<module>.share metrics: every
// flexmap/internal package the workloads link, plus gc and other.
var profModules = []string{
	"cluster", "core", "dfs", "elastic", "engine", "experiments", "faults", "gc",
	"maputil", "metrics", "mr", "net", "other", "parallel", "puma", "randutil",
	"runner", "sim", "skewtune", "speculate", "trace", "workload", "yarn",
}
