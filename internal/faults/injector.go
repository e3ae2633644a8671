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
	// PreemptContainer revokes one running container on the node,
	// reporting whether one was running.
	PreemptContainer(id cluster.NodeID) bool
}

// Injector arms a fault schedule on a simulation engine and applies each
// event against the target. Events against an already-down node are
// skipped (a dead machine cannot crash or slow down again), so injection
// is well-defined for any schedule. Its events end with the run: the
// engine stop at the last job's finish drops every fault, restore and
// recovery still pending.
type Injector struct {
	eng      *sim.Engine
	c        *cluster.Cluster
	target   Target
	schedule []Event

	// Trace, when non-nil, records each fault actually applied.
	Trace *trace.Tracer

	// Injected counts events actually applied (skips excluded).
	Injected int
}

// NewInjector builds an injector over a schedule. Call Start to arm it.
func NewInjector(eng *sim.Engine, c *cluster.Cluster, schedule []Event, target Target) *Injector {
	return &Injector{eng: eng, c: c, target: target, schedule: schedule}
}

// Start arms every scheduled event on the engine.
func (in *Injector) Start() {
	for _, ev := range in.schedule {
		ev := ev
		in.eng.At(ev.At, "fault-"+ev.Kind.String(), func() { in.apply(ev) })
	}
}

func (in *Injector) apply(ev Event) {
	n := in.c.Node(ev.Node)
	switch ev.Kind {
	case Crash:
		if n.Down() {
			return
		}
		in.Injected++
		in.Trace.FaultInject(ev.Kind.String(), ev.Node, ev.Duration, 0)
		in.target.CrashNode(ev.Node)
		in.eng.After(ev.Duration, "fault-restore", func() { in.target.RestoreNode(ev.Node) })
	case Slowdown:
		if n.Down() {
			return
		}
		prev := n.Interference()
		if ev.Factor >= prev {
			return // an interferer already slows this node harder
		}
		in.Injected++
		in.Trace.FaultInject(ev.Kind.String(), ev.Node, ev.Duration, ev.Factor)
		n.SetInterference(ev.Factor)
		in.eng.After(ev.Duration, "fault-recover", func() {
			// Restore the pre-fault multiplier only if nothing else (an
			// interference process, another fault) changed it meanwhile.
			if !n.Down() && n.Interference() == ev.Factor {
				n.SetInterference(prev)
			}
		})
	case Preempt:
		if n.Down() {
			return
		}
		if in.target.PreemptContainer(ev.Node) {
			in.Injected++
			in.Trace.FaultInject(ev.Kind.String(), ev.Node, 0, 0)
		}
	}
}
