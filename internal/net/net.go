// Package net is the topology-aware network model: a two-level fat-tree
// fabric (hosts under top-of-rack switches, ToR uplinks into a core that
// may be oversubscribed) carrying discrete flows for map remote fetches,
// speculative copies, and reduce shuffle streams.
//
// Bandwidth is shared max-min fairly by progressive filling: whenever a
// flow starts, finishes, or is canceled, every active flow's progress is
// folded in at its old rate, rates are recomputed from scratch — repeatedly
// freezing the flows crossing the most-contended link at that link's equal
// share — and flows whose rate changed get their completion events
// rescheduled through sim.Handle's lazy-cancel path.
//
// # Determinism
//
// Everything here is deterministic: flows are kept in start order, links
// are compared by index with an explicit lowest-index tie-break, and the
// floating-point operations run in one fixed order. No RNG, no wall
// clock, no map iteration.
package net

import (
	"fmt"

	"flexmap/internal/cluster"
	"flexmap/internal/sim"
	"flexmap/internal/trace"
)

// MB matches the byte unit used for Cluster.NetBW (MB/s).
const MB = 1 << 20

// AllRemoteRacks is the source-rack sentinel for StartAggFlow: the flow
// models many senders spread across every rack other than the
// destination's, so it consumes core→rack downlink but no single uplink.
const AllRemoteRacks = -1

// Flow is one transfer in flight through the fabric.
type Flow struct {
	id    uint64
	label string         // owning task, for trace events
	dst   cluster.NodeID // receiving node
	src   int            // source node ID, or AllRemoteRacks for aggregates
	cross bool           // traverses the oversubscribed core

	total float64 // bytes
	done  float64 // bytes moved as of lastSync
	rate  float64 // bytes/second since lastSync
	start sim.Time

	lastSync sim.Time
	path     [4]int32 // link indices traversed, in order
	npath    int
	ev       sim.Handle
	onDone   func()
	finished bool
	canceled bool
}

// Transferred returns the bytes moved by virtual time now.
func (fl *Flow) Transferred(now sim.Time) int64 {
	if fl.finished {
		return int64(fl.total)
	}
	p := fl.done + fl.rate*float64(now-fl.lastSync)
	if p > fl.total {
		p = fl.total
	}
	return int64(p + 0.5)
}

// Rate returns the flow's current max-min fair rate in bytes/second.
func (fl *Flow) Rate() float64 { return fl.rate }

// EstRemaining estimates the time to completion at the current rate.
func (fl *Flow) EstRemaining(now sim.Time) sim.Duration {
	if fl.finished || fl.canceled {
		return 0
	}
	rem := fl.total - (fl.done + fl.rate*float64(now-fl.lastSync))
	if rem <= 0 {
		return 0
	}
	if fl.rate <= 0 {
		return sim.Duration(sim.Infinity)
	}
	return sim.Duration(rem / fl.rate)
}

// sync folds elapsed progress into done at the current time.
func (fl *Flow) sync(now sim.Time) {
	fl.done += fl.rate * float64(now-fl.lastSync)
	if fl.done > fl.total {
		fl.done = fl.total
	}
	fl.lastSync = now
}

// uses reports whether the flow traverses link li.
func (fl *Flow) uses(li int32) bool {
	for i := 0; i < fl.npath; i++ {
		if fl.path[i] == li {
			return true
		}
	}
	return false
}

// link is one directed fabric edge with a fixed capacity.
type link struct {
	cap   float64 // bytes/second
	bytes int64   // cumulative bytes carried by ended flows

	// progressive-filling working state
	capRem float64
	cnt    int32
}

// LinkStat is one link's end-of-run summary.
type LinkStat struct {
	Name  string
	CapBW float64 // capacity in MB/s
	Bytes int64   // bytes carried by completed/canceled flows
	Util  float64 // Bytes / (capacity × elapsed virtual time)
}

// Fabric is the instantiated topology for one cluster plus the set of
// active flows. It is not safe for concurrent use; like every simulation
// component it runs inside serially-fired engine callbacks.
type Fabric struct {
	// Trace, when non-nil, receives net-flow-start/end events. Set it
	// before the first flow starts.
	Trace *trace.Tracer

	eng          *sim.Engine
	nodes        int
	hostsPerRack int
	racks        int
	hostBW       float64 // bytes/second per host access link
	rackBW       float64 // bytes/second per ToR uplink/downlink

	// links is the flat edge array: hostUp[n] ++ hostDown[n] ++
	// rackUp[racks] ++ rackDown[racks].
	links   []link
	touched []int32  // scratch: links referenced by active flows
	mark    []uint64 // per-link epoch stamp backing touched
	epoch   uint64

	active    []*Flow   // start order (ascending id)
	prevRates []float64 // scratch: pre-recompute rates, index-aligned with active
	nextID    uint64

	crossRackBytes int64
}

// New builds the fabric for a cluster whose Topology is set. The engine is
// needed to schedule flow-completion events.
func New(eng *sim.Engine, c *cluster.Cluster) (*Fabric, error) {
	spec := c.Topology
	if spec == nil {
		return nil, fmt.Errorf("net: cluster %q has no topology spec", c.Name)
	}
	if err := spec.Validate(c.NetBW); err != nil {
		return nil, err
	}
	hostBW := spec.HostBW
	if hostBW == 0 {
		hostBW = c.NetBW
	}
	if hostBW <= 0 {
		return nil, fmt.Errorf("net: cluster %q host bandwidth %v MB/s is not positive", c.Name, hostBW)
	}
	oversub := spec.Oversub
	if oversub == 0 {
		oversub = 1
	}
	n := c.Size()
	racks := (n + spec.HostsPerRack - 1) / spec.HostsPerRack
	f := &Fabric{
		eng:          eng,
		nodes:        n,
		hostsPerRack: spec.HostsPerRack,
		racks:        racks,
		hostBW:       hostBW * MB,
		rackBW:       hostBW * MB * float64(spec.HostsPerRack) / oversub,
		links:        make([]link, 2*n+2*racks),
		mark:         make([]uint64, 2*n+2*racks),
	}
	for i := 0; i < 2*n; i++ {
		f.links[i].cap = f.hostBW
	}
	for i := 2 * n; i < len(f.links); i++ {
		f.links[i].cap = f.rackBW
	}
	for i := range f.links {
		if f.links[i].cap <= 0 {
			return nil, fmt.Errorf("net: cluster %q link %d has non-positive capacity", c.Name, i)
		}
	}
	return f, nil
}

// Racks returns the number of racks.
func (f *Fabric) Racks() int { return f.racks }

// RackOf returns the rack holding a node: racks are contiguous NodeID
// blocks of HostsPerRack nodes.
func (f *Fabric) RackOf(id cluster.NodeID) int { return int(id) / f.hostsPerRack }

// HostBW returns the host access-link capacity in bytes/second.
func (f *Fabric) HostBW() float64 { return f.hostBW }

// RackBW returns the ToR uplink/downlink capacity in bytes/second.
func (f *Fabric) RackBW() float64 { return f.rackBW }

// CrossRackBytes returns the bytes moved across the core by ended flows.
func (f *Fabric) CrossRackBytes() int64 { return f.crossRackBytes }

// ActiveFlows returns the number of flows currently in the fabric.
func (f *Fabric) ActiveFlows() int { return len(f.active) }

// link index helpers.
func (f *Fabric) hostUp(id cluster.NodeID) int32   { return int32(id) }
func (f *Fabric) hostDown(id cluster.NodeID) int32 { return int32(f.nodes + int(id)) }
func (f *Fabric) rackUp(r int) int32               { return int32(2*f.nodes + r) }
func (f *Fabric) rackDown(r int) int32             { return int32(2*f.nodes + f.racks + r) }

// StartFlow begins a point-to-point transfer from src to dst and invokes
// onDone when the last byte lands. Intra-rack flows traverse the two host
// links; cross-rack flows additionally cross both ToR links.
func (f *Fabric) StartFlow(src, dst cluster.NodeID, bytes int64, label string, onDone func()) *Flow {
	if bytes <= 0 {
		panic(fmt.Sprintf("net: flow %q of %d bytes", label, bytes))
	}
	if src == dst {
		panic(fmt.Sprintf("net: flow %q from node %d to itself", label, src))
	}
	fl := f.newFlow(dst, int(src), bytes, label, onDone)
	sr, dr := f.RackOf(src), f.RackOf(dst)
	if sr == dr {
		fl.path[0], fl.path[1] = f.hostUp(src), f.hostDown(dst)
		fl.npath = 2
	} else {
		fl.cross = true
		fl.path[0], fl.path[1] = f.hostUp(src), f.rackUp(sr)
		fl.path[2], fl.path[3] = f.rackDown(dr), f.hostDown(dst)
		fl.npath = 4
	}
	f.admit(fl)
	return fl
}

// StartAggFlow begins an aggregate transfer into dst standing for many
// senders at once: srcRack selects the sending rack (the destination's own
// rack for the intra-rack share) or AllRemoteRacks for senders spread over
// every other rack. Aggregates consume the destination-side links only —
// the individual senders' uplinks are assumed unsaturated since each
// contributes a sliver of the stream.
func (f *Fabric) StartAggFlow(srcRack int, dst cluster.NodeID, bytes int64, label string, onDone func()) *Flow {
	if bytes <= 0 {
		panic(fmt.Sprintf("net: aggregate flow %q of %d bytes", label, bytes))
	}
	fl := f.newFlow(dst, AllRemoteRacks, bytes, label, onDone)
	dr := f.RackOf(dst)
	switch {
	case srcRack == dr:
		fl.path[0] = f.hostDown(dst)
		fl.npath = 1
	case srcRack == AllRemoteRacks:
		fl.cross = true
		fl.path[0], fl.path[1] = f.rackDown(dr), f.hostDown(dst)
		fl.npath = 2
	default:
		fl.cross = true
		fl.path[0], fl.path[1] = f.rackUp(srcRack), f.rackDown(dr)
		fl.path[2] = f.hostDown(dst)
		fl.npath = 3
	}
	f.admit(fl)
	return fl
}

// newFlow allocates the flow record common to both start paths.
func (f *Fabric) newFlow(dst cluster.NodeID, src int, bytes int64, label string, onDone func()) *Flow {
	f.nextID++
	now := f.eng.Now()
	return &Flow{
		id:       f.nextID,
		label:    label,
		dst:      dst,
		src:      src,
		total:    float64(bytes),
		start:    now,
		lastSync: now,
		onDone:   onDone,
	}
}

// admit registers the flow, emits its trace event, and reshares bandwidth.
func (f *Fabric) admit(fl *Flow) {
	f.active = append(f.active, fl)
	f.Trace.NetFlowStart(fl.label, fl.dst, fl.src, int64(fl.total), fl.cross)
	f.recompute()
}

// finish completes a flow at its scheduled time.
func (f *Fabric) finish(fl *Flow) {
	fl.ev = sim.Handle{}
	fl.done = fl.total
	fl.lastSync = f.eng.Now()
	fl.finished = true
	f.remove(fl)
	f.account(fl, int64(fl.total))
	f.Trace.NetFlowEnd(fl.label, fl.dst, int64(fl.total), fl.cross, sim.Duration(f.eng.Now()-fl.start), false)
	f.recompute()
	fl.onDone()
}

// Cancel stops a flow early and returns the bytes it actually moved.
// onDone is never called. Canceling a finished or already-canceled flow is
// a no-op returning 0 (the bytes were accounted when the flow ended).
func (f *Fabric) Cancel(fl *Flow) int64 {
	if fl == nil || fl.finished || fl.canceled {
		return 0
	}
	now := f.eng.Now()
	fl.sync(now)
	fl.canceled = true
	f.eng.Cancel(fl.ev)
	fl.ev = sim.Handle{}
	f.remove(fl)
	transferred := int64(fl.done + 0.5)
	f.account(fl, transferred)
	f.Trace.NetFlowEnd(fl.label, fl.dst, transferred, fl.cross, sim.Duration(now-fl.start), true)
	f.recompute()
	return transferred
}

// account credits an ended flow's bytes to every link it crossed.
func (f *Fabric) account(fl *Flow, transferred int64) {
	for i := 0; i < fl.npath; i++ {
		f.links[fl.path[i]].bytes += transferred
	}
	if fl.cross {
		f.crossRackBytes += transferred
	}
}

// remove detaches a flow from the active set, preserving start order.
func (f *Fabric) remove(fl *Flow) {
	for i, cand := range f.active {
		if cand == fl {
			copy(f.active[i:], f.active[i+1:])
			f.active[len(f.active)-1] = nil
			f.active = f.active[:len(f.active)-1]
			return
		}
	}
}

// recompute reassigns every active flow's rate by progressive filling and
// reschedules completion events for flows whose rate changed. It touches
// only the links referenced by active flows, so cost scales with the flow
// population, not the fabric size.
func (f *Fabric) recompute() {
	if len(f.active) == 0 {
		return
	}
	now := f.eng.Now()
	// Fold in progress at the old rates before they change.
	for _, fl := range f.active {
		fl.sync(now)
	}
	// Reset working state on exactly the links in play.
	f.epoch++
	f.touched = f.touched[:0]
	for _, fl := range f.active {
		for i := 0; i < fl.npath; i++ {
			li := fl.path[i]
			if f.mark[li] != f.epoch {
				f.mark[li] = f.epoch
				f.links[li].capRem = f.links[li].cap
				f.links[li].cnt = 0
				f.touched = append(f.touched, li)
			}
			f.links[li].cnt++
		}
	}
	// Progressive filling: freeze the flows crossing the most-contended
	// link at that link's equal share, release their claims, repeat.
	prev := f.scratchRates()
	unfrozen := len(f.active)
	for _, fl := range f.active {
		fl.rate = -1 // unfrozen sentinel
	}
	for unfrozen > 0 {
		best := int32(-1)
		var bestShare float64
		for _, li := range f.touched {
			l := &f.links[li]
			if l.cnt == 0 {
				continue
			}
			share := l.capRem / float64(l.cnt)
			if best < 0 || share < bestShare || (share == bestShare && li < best) {
				best, bestShare = li, share
			}
		}
		if best < 0 {
			break // unreachable: every unfrozen flow keeps its links' cnt > 0
		}
		if bestShare <= 0 {
			// Float rounding at epsilon scale; keep rates positive so
			// completion events stay finite.
			bestShare = 1e-9
		}
		for _, fl := range f.active {
			if fl.rate >= 0 || !fl.uses(best) {
				continue
			}
			fl.rate = bestShare
			unfrozen--
			for i := 0; i < fl.npath; i++ {
				l := &f.links[fl.path[i]]
				l.cnt--
				l.capRem -= bestShare
				if l.capRem < 0 {
					l.capRem = 0
				}
			}
		}
	}
	// Reschedule only flows whose rate actually changed: an unchanged rate
	// means the previously scheduled completion instant is still exact.
	for i, fl := range f.active {
		if fl.rate == prev[i] {
			continue
		}
		rem := fl.total - fl.done
		if rem < 0 {
			rem = 0
		}
		f.eng.Cancel(fl.ev)
		flc := fl
		fl.ev = f.eng.After(sim.Duration(rem/fl.rate), "net-flow-done", func() {
			f.finish(flc)
		})
	}
}

// scratchRates snapshots the active flows' pre-recompute rates into a
// reused buffer so the reschedule pass can skip unchanged flows.
func (f *Fabric) scratchRates() []float64 {
	if cap(f.prevRates) < len(f.active) {
		f.prevRates = make([]float64, len(f.active)*2)
	}
	f.prevRates = f.prevRates[:len(f.active)]
	for i, fl := range f.active {
		f.prevRates[i] = fl.rate
	}
	return f.prevRates
}

// LinkStats summarizes every link: bytes carried by ended flows and mean
// utilization over the given horizon (typically the job's finish time —
// the engine clock is unusable here, since draining lazily-canceled
// far-future flow events advances it past the last real event). Host
// links come first (up then down), then rack uplinks and downlinks.
func (f *Fabric) LinkStats(until sim.Time) []LinkStat {
	now := float64(until)
	out := make([]LinkStat, 0, len(f.links))
	stat := func(name string, l *link) LinkStat {
		util := 0.0
		if now > 0 {
			util = float64(l.bytes) / (l.cap * now)
		}
		return LinkStat{Name: name, CapBW: l.cap / MB, Bytes: l.bytes, Util: util}
	}
	for i := 0; i < f.nodes; i++ {
		out = append(out, stat(fmt.Sprintf("host%04d-up", i), &f.links[f.hostUp(cluster.NodeID(i))]))
	}
	for i := 0; i < f.nodes; i++ {
		out = append(out, stat(fmt.Sprintf("host%04d-down", i), &f.links[f.hostDown(cluster.NodeID(i))]))
	}
	for r := 0; r < f.racks; r++ {
		out = append(out, stat(fmt.Sprintf("rack%02d-up", r), &f.links[f.rackUp(r)]))
	}
	for r := 0; r < f.racks; r++ {
		out = append(out, stat(fmt.Sprintf("rack%02d-down", r), &f.links[f.rackDown(r)]))
	}
	return out
}
