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
// is well-defined for any schedule. Stop gates all later events — the
// runner calls it when the run's last job finishes, so a finished run
// stops mutating cluster state.
type Injector struct {
	eng      *sim.Engine
	c        *cluster.Cluster
	target   Target
	schedule []Event
	stopped  bool

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

// Stop gates all not-yet-fired events (including pending restores).
func (in *Injector) Stop() { in.stopped = true }

func (in *Injector) apply(ev Event) {
	if in.stopped {
		return
	}
	n := in.c.Node(ev.Node)
	switch ev.Kind {
	case Crash:
		if n.Down() {
			return
		}
		in.Injected++
		in.Trace.FaultInject(ev.Kind.String(), ev.Node, ev.Duration, 0)
		in.target.CrashNode(ev.Node)
		in.eng.After(ev.Duration, "fault-restore", func() {
			if !in.stopped {
				in.target.RestoreNode(ev.Node)
			}
		})
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
			if !in.stopped && !n.Down() && n.Interference() == ev.Factor {
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
