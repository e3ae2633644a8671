// Package trace is the simulator's deterministic observability layer:
// typed events (task bind/dispatch/commit/kill, heartbeat IPS samples,
// Algorithm 1 sizing decisions, biased reduce placements, fault
// inject/detect/recover) collected per run and exportable as JSON Lines,
// a Chrome/Perfetto trace-event file, or a human-readable timeline.
//
// The determinism contract: every event is stamped with the sim.Engine's
// virtual clock — never wall time — and emission does no RNG draws and
// schedules no events, so a traced run is byte-identical to an untraced
// one in every simulation output, and the same seed produces the same
// trace bytes whether the run executed serially or inside a parallel
// experiment grid.
//
// The overhead contract: a nil *Tracer is the disabled state. Every emit
// method nil-checks before touching any state, and call sites pass only
// scalars, so tracing off costs a few predictable branches per task
// lifecycle — no allocation, no formatting.
package trace

import (
	"strconv"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
)

// NoNode marks events that are not scoped to a single node.
const NoNode cluster.NodeID = -1

// Kind is a typed event class.
type Kind uint8

// Event kinds, in rough task-lifecycle order.
const (
	// KindSizer is one Algorithm 1 decision: the inputs (relative speed,
	// size unit, fair-share clamp, remaining BUs) and the resulting size.
	KindSizer Kind = iota
	// KindTaskBind is Late Task Binding materializing a map task: BUs
	// bound to a node at slot-free time.
	KindTaskBind
	// KindMapDispatch is a map attempt launching on a node.
	KindMapDispatch
	// KindReduceDispatch is a reduce attempt launching on a node.
	KindReduceDispatch
	// KindTaskDone is an attempt completing successfully.
	KindTaskDone
	// KindTaskKill is an attempt stopped early (speculation race loss,
	// repartition, or fault-induced crash).
	KindTaskKill
	// KindCommit is map output for a batch of BUs becoming visible to the
	// shuffle on a node.
	KindCommit
	// KindHeartbeat is one node IPS sample entering the speed window —
	// from a heartbeat round or an attempt completion.
	KindHeartbeat
	// KindReducePlace is one capacity-biased reducer placement, with the
	// accepted node's c² acceptance probability and the rejection-sampling
	// draw count.
	KindReducePlace
	// KindFaultInject is the fault injector crashing a node.
	KindFaultInject
	// KindFaultDetect is the NodeWatcher declaring a node lost after
	// missed heartbeats.
	KindFaultDetect
	// KindFaultRecover is a down node heartbeating again (rejoin).
	KindFaultRecover
	// KindNetFlowStart is a network flow (map fetch, speculative copy, or
	// shuffle stream) entering the topology fabric.
	KindNetFlowStart
	// KindNetFlowEnd is a flow leaving the fabric — completed or canceled
	// — with the bytes it actually moved.
	KindNetFlowEnd
	// KindNodeJoin is an elastic spare coming online as a cluster member.
	KindNodeJoin
	// KindNodeDrain is a graceful decommission starting: no new binds,
	// running work finishes or hands off before the notice expires.
	KindNodeDrain
	// KindNodeRelease is a drained node leaving the cluster.
	KindNodeRelease
	// KindAutoscale is one autoscaler decision (scale-out or scale-in).
	KindAutoscale
)

// String names the kind the way the JSONL "kind" field spells it.
func (k Kind) String() string {
	switch k {
	case KindSizer:
		return "sizer"
	case KindTaskBind:
		return "task-bind"
	case KindMapDispatch:
		return "map-dispatch"
	case KindReduceDispatch:
		return "reduce-dispatch"
	case KindTaskDone:
		return "task-done"
	case KindTaskKill:
		return "task-kill"
	case KindCommit:
		return "commit"
	case KindHeartbeat:
		return "heartbeat"
	case KindReducePlace:
		return "reduce-place"
	case KindFaultInject:
		return "fault-inject"
	case KindFaultDetect:
		return "fault-detect"
	case KindFaultRecover:
		return "fault-recover"
	case KindNetFlowStart:
		return "net-flow-start"
	case KindNetFlowEnd:
		return "net-flow-end"
	case KindNodeJoin:
		return "node-join"
	case KindNodeDrain:
		return "node-drain"
	case KindNodeRelease:
		return "node-release"
	case KindAutoscale:
		return "autoscale"
	}
	return "kind-" + strconv.Itoa(int(k))
}

// argKind discriminates Arg payloads.
type argKind uint8

const (
	argInt argKind = iota
	argFloat
	argStr
	argBool
)

// Arg is one typed key/value payload field of an event. Keys are fixed
// identifiers chosen at the emit site, so JSONL field order is part of
// each kind's schema.
type Arg struct {
	Key  string
	kind argKind
	i    int64
	f    float64
	s    string
}

// Int builds an integer arg.
func Int(key string, v int64) Arg { return Arg{Key: key, kind: argInt, i: v} }

// Float builds a float arg.
func Float(key string, v float64) Arg { return Arg{Key: key, kind: argFloat, f: v} }

// Str builds a string arg.
func Str(key, v string) Arg { return Arg{Key: key, kind: argStr, s: v} }

// Bool builds a boolean arg.
func Bool(key string, v bool) Arg {
	a := Arg{Key: key, kind: argBool}
	if v {
		a.i = 1
	}
	return a
}

// Event is one recorded occurrence on the virtual clock.
type Event struct {
	At   sim.Time
	Kind Kind
	Job  string         // "" outside workload runs (solo traces unchanged)
	Node cluster.NodeID // NoNode when not node-scoped
	Task string         // "" when not task-scoped
	Args []Arg
}

// traceState is the storage shared by every job-scoped view of one run:
// a single chronologically interleaved event stream, and the arena its
// events' args live in.
type traceState struct {
	events []Event
	// args is the arena's current chunk. Each event's Args is a
	// sub-slice of a chunk, capped at its own length, so an append to one
	// event's Args reallocates instead of overwriting the next event's.
	// Chunks double from minArgChunk up to maxArgChunk, so a small run
	// keeps a small arena.
	args []Arg
}

// Arena chunk bounds, in Args.
const (
	minArgChunk = 64
	maxArgChunk = 4096
)

// Tracer collects a run's events, the run's only telemetry record.
// The zero value is not used; a nil *Tracer is the disabled tracer and
// every method is safe (and free) to call on it.
//
// A Tracer is a view over shared per-run state. Solo runs use the root
// view (no job label). Workload runs hand each driver a ForJob view,
// whose events carry the job label.
type Tracer struct {
	eng *sim.Engine
	job string
	st  *traceState
}

// New returns an enabled tracer stamping events from the engine's clock.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng, st: &traceState{}}
}

// ForJob returns a view that labels every event it emits with the job ID;
// the events land in the same run-wide stream as the root view's.
func (t *Tracer) ForJob(job string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{eng: t.eng, job: job, st: t.st}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns the collected events in emission order — for job views,
// still the whole run's stream.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.st.events
}

// emit appends one event stamped at the current virtual time, copying
// its args into the arena: the variadic slice does not escape, so an
// emission allocates nothing beyond the amortized growth of the event
// slice and the arena. Callers have already nil-checked t.
func (t *Tracer) emit(kind Kind, node cluster.NodeID, task string, args ...Arg) {
	st := t.st
	var kept []Arg
	if n := len(args); n > 0 {
		if cap(st.args)-len(st.args) < n {
			st.args = make([]Arg, 0, max(n, min(2*cap(st.args), maxArgChunk), minArgChunk))
		}
		at := len(st.args)
		st.args = append(st.args, args...)
		kept = st.args[at : at+n : at+n]
	}
	st.events = append(st.events, Event{
		At: t.eng.Now(), Kind: kind, Job: t.job, Node: node, Task: task, Args: kept,
	})
}

// SizerDecision records one Algorithm 1 sizing decision with its inputs:
// the node's relative speed, its current size unit, the fair-share clamp,
// the unbound BUs remaining, and the size actually requested.
func (t *Tracer) SizerDecision(node cluster.NodeID, relSpeed float64, sizeUnit, fairShare, remaining, size int) {
	if t == nil {
		return
	}
	t.emit(KindSizer, node, "",
		Float("rel_speed", relSpeed),
		Int("size_unit", int64(sizeUnit)),
		Int("fair_share", int64(fairShare)),
		Int("remaining", int64(remaining)),
		Int("size", int64(size)))
}

// TaskBind records Late Task Binding materializing a map task.
func (t *Tracer) TaskBind(task string, node cluster.NodeID, bus, local int) {
	if t == nil {
		return
	}
	t.emit(KindTaskBind, node, task,
		Int("bus", int64(bus)), Int("local", int64(local)))
}

// MapDispatch records a map attempt launching.
func (t *Tracer) MapDispatch(task string, node cluster.NodeID, wave, bus, local int, bytes, remoteBytes int64, speculative bool) {
	if t == nil {
		return
	}
	t.emit(KindMapDispatch, node, task,
		Int("wave", int64(wave)), Int("bus", int64(bus)), Int("local", int64(local)),
		Int("bytes", bytes), Int("remote_bytes", remoteBytes),
		Bool("speculative", speculative))
}

// ReduceDispatch records a reduce attempt launching.
func (t *Tracer) ReduceDispatch(task string, node cluster.NodeID, partBytes int64) {
	if t == nil {
		return
	}
	t.emit(KindReduceDispatch, node, task, Int("bytes", partBytes))
}

// TaskDone records an attempt completing successfully.
func (t *Tracer) TaskDone(task string, node cluster.NodeID, bytes int64) {
	if t == nil {
		return
	}
	t.emit(KindTaskDone, node, task, Int("bytes", bytes))
}

// TaskKill records an attempt stopped before completion; crashed marks a
// fault-induced termination rather than a scheduling decision.
func (t *Tracer) TaskKill(task string, node cluster.NodeID, crashed bool) {
	if t == nil {
		return
	}
	t.emit(KindTaskKill, node, task, Bool("crashed", crashed))
}

// Commit records map output for a batch of BUs becoming shuffle-visible.
func (t *Tracer) Commit(node cluster.NodeID, bus int, interBytes int64) {
	if t == nil {
		return
	}
	t.emit(KindCommit, node, "",
		Int("bus", int64(bus)), Int("inter_bytes", interBytes))
}

// Heartbeat records one IPS sample entering a node's speed window and
// the window mean after it; completion marks samples contributed by an
// attempt finishing rather than a heartbeat round.
func (t *Tracer) Heartbeat(node cluster.NodeID, sampleIPS, windowIPS float64, completion bool) {
	if t == nil {
		return
	}
	t.emit(KindHeartbeat, node, "",
		Float("ips", sampleIPS), Float("window_ips", windowIPS),
		Bool("completion", completion))
}

// ReducePlace records one biased reducer placement: the partition, the
// chosen node's c² acceptance probability, the number of rejection-
// sampling draws spent, and whether the bail-out fallback fired.
func (t *Tracer) ReducePlace(partition int, node cluster.NodeID, accept float64, draws int, fallback bool) {
	if t == nil {
		return
	}
	t.emit(KindReducePlace, node, "",
		Int("partition", int64(partition)),
		Float("accept", accept), Int("draws", int64(draws)), Bool("fallback", fallback))
}

// FaultInject records the injector crashing a node for downtime. The
// constant "fault":"crash" and "factor":0 arguments stay because pinned
// trace digests hash those bytes.
func (t *Tracer) FaultInject(node cluster.NodeID, downtime sim.Duration) {
	if t == nil {
		return
	}
	t.emit(KindFaultInject, node, "",
		Str("fault", "crash"), Float("duration", float64(downtime)), Float("factor", 0))
}

// FaultDetect records the NodeWatcher declaring a node lost.
func (t *Tracer) FaultDetect(node cluster.NodeID) {
	if t == nil {
		return
	}
	t.emit(KindFaultDetect, node, "")
}

// FaultRecover records a down node heartbeating again; declared says
// whether the outage had been long enough to be declared a loss.
func (t *Tracer) FaultRecover(node cluster.NodeID, declared bool) {
	if t == nil {
		return
	}
	t.emit(KindFaultRecover, node, "", Bool("declared", declared))
}

// NetFlowStart records a flow entering the topology fabric. src is the
// source node ID, or -1 for an aggregate flow (many senders modeled as
// one stream); cross marks flows that traverse the oversubscribed core.
func (t *Tracer) NetFlowStart(task string, dst cluster.NodeID, src int, bytes int64, cross bool) {
	if t == nil {
		return
	}
	t.emit(KindNetFlowStart, dst, task,
		Int("src", int64(src)), Int("bytes", bytes), Bool("cross_rack", cross))
}

// NetFlowEnd records a flow leaving the fabric with the bytes it actually
// moved; canceled marks flows stopped early (attempt kill or node crash).
func (t *Tracer) NetFlowEnd(task string, dst cluster.NodeID, transferred int64, cross bool, dur sim.Duration, canceled bool) {
	if t == nil {
		return
	}
	t.emit(KindNetFlowEnd, dst, task,
		Int("bytes", transferred), Bool("cross_rack", cross),
		Float("dur", float64(dur)), Bool("canceled", canceled))
}

// NodeJoin records an elastic spare coming online with its slot count.
func (t *Tracer) NodeJoin(node cluster.NodeID, slots int) {
	if t == nil {
		return
	}
	t.emit(KindNodeJoin, node, "", Int("slots", int64(slots)))
}

// NodeDrain records a graceful decommission starting; spot marks a
// reclaim with short notice rather than a planned scale-in.
func (t *Tracer) NodeDrain(node cluster.NodeID, notice sim.Duration, spot bool) {
	if t == nil {
		return
	}
	t.emit(KindNodeDrain, node, "",
		Float("notice", float64(notice)), Bool("spot", spot))
}

// NodeRelease records a drained node leaving the cluster, with the map
// attempts preempted at the deadline (0 for a fully graceful drain).
func (t *Tracer) NodeRelease(node cluster.NodeID, preempted int) {
	if t == nil {
		return
	}
	t.emit(KindNodeRelease, node, "", Int("preempted", int64(preempted)))
}

// Autoscale records one autoscaler decision with the occupancy it read:
// action is "scale-out" or "scale-in", node the spare acted on.
func (t *Tracer) Autoscale(action string, node cluster.NodeID, busy, slots int) {
	if t == nil {
		return
	}
	t.emit(KindAutoscale, node, "",
		Str("action", action), Int("busy", int64(busy)), Int("slots", int64(slots)))
}
