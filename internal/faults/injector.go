package faults

import (
	"flexmap/internal/cluster"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// Target is the execution-layer surface the injector drives.
// *engine.FaultTarget implements it for every run; tests substitute
// fakes.
type Target interface {
	// CrashNode takes the node down silently, killing everything on it.
	CrashNode(id cluster.NodeID)
	// RestoreNode powers the node back up; it re-registers at its next
	// heartbeat.
	RestoreNode(id cluster.NodeID)
}

// Injector arms a crash schedule on a simulation engine and applies each
// event against the target. A crash of an already-down node is skipped
// (a dead machine cannot crash again), so injection is well-defined for
// any schedule. Its events end with the run: the engine stop at the last
// job's finish drops every crash, restore and recovery still pending.
type Injector struct {
	eng      *sim.Engine
	c        *cluster.Cluster
	target   Target
	schedule []Event

	// Trace, when non-nil, records each crash actually applied.
	Trace *trace.Tracer
}

// NewInjector builds an injector over a schedule. Call Start to arm it.
func NewInjector(eng *sim.Engine, c *cluster.Cluster, schedule []Event, target Target) *Injector {
	return &Injector{eng: eng, c: c, target: target, schedule: schedule}
}

// Start arms every scheduled event on the engine.
func (in *Injector) Start() {
	for _, ev := range in.schedule {
		ev := ev
		in.eng.At(ev.At, "fault-crash", func() { in.apply(ev) })
	}
}

func (in *Injector) apply(ev Event) {
	if in.c.Node(ev.Node).Down() {
		return
	}
	in.Trace.FaultInject(ev.Node, ev.Duration)
	in.target.CrashNode(ev.Node)
	in.eng.After(ev.Duration, "fault-restore", func() { in.target.RestoreNode(ev.Node) })
}
