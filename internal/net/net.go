// Package net is the topology-aware network model: a two-level fat-tree
// fabric (hosts under top-of-rack switches, ToR uplinks into a core that
// may be oversubscribed) carrying discrete flows for map remote fetches,
// speculative copies, and reduce shuffle streams.
//
// Bandwidth is shared max-min fairly by progressive filling: repeatedly
// freezing the unfrozen flows crossing the most-contended link at that
// link's equal share. Max-min fair rates split across the connected
// components of the flow–link graph, so when a flow starts, finishes or
// is canceled, only its component is refilled: every active flow's
// progress is folded in at its old rate, a walk from the changed flow's
// links collects the component, its rates are refilled, and its flows
// whose rate changed get their completion events rescheduled through
// sim.Handle's lazy-cancel path. Flows outside keep their rate and their
// event.
//
// Each link keeps the list of active flows crossing it, which the walk
// follows, and an indexed min-heap over the links in play, keyed on
// (share, link index), yields each round's bottleneck. A freeze round
// walks only the bottleneck's list and re-keys only the links its flows
// cross, so one change costs O(F) to fold in progress plus
// O(C·p·log L_C) to refill a component of C flows of path length p ≤ 4
// over L_C links.
//
// # Determinism
//
// Everything here is deterministic: flows are rescheduled in start order,
// links are compared by index with an explicit lowest-index tie-break,
// and no RNG, wall clock or map iteration is involved. Within a round
// every frozen flow subtracts the same share from each link it crosses,
// so a link's remaining capacity goes through the same float operations
// whatever order its list is walked in, and the rates do not depend on
// list order. A freeze changes only its own component's links, so a
// component's fill freezes in the same (share, link index) order as a
// fill over every active flow, and its rates come out bit for bit the
// same.
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
	rate  float64 // bytes/second since lastSync; -1 while unfrozen in fill
	prev  float64 // rate before the last fill that reached the flow
	start sim.Time

	lastSync sim.Time
	path     [4]int32 // link indices traversed, in order
	slot     [4]int32 // position in links[path[i]].flows
	npath    int
	ev       sim.Handle
	onDone   func()
	complete func() // f.finish(fl), bound once so reschedules allocate nothing
	finished bool
	canceled bool
}

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

// link is one directed fabric edge with a fixed capacity.
type link struct {
	cap   float64 // bytes/second
	bytes int64   // cumulative bytes carried by ended flows
	flows []*Flow // active flows crossing the link, in no particular order

	// progressive-filling working state
	capRem float64
	share  float64 // heap key: capRem/cnt as of the last finished round
	cnt    int32   // unfrozen flows crossing the link
	hpos   int32   // index in Fabric.heap, or -1 when not in play
	dirty  bool    // capRem/cnt changed in the current round
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
	links []link
	heap  []int32 // fill scratch: the walk's queue, then links with unfrozen flows, min (share, index) first
	dirty []int32 // fill scratch: links re-keyed after the current round

	active []*Flow // start order (ascending id)
	nextID uint64

	// Fill counters, read only by tests: recomputes run, active flows
	// synced over them, and flows their component walks reached.
	recomputes, synced, filled int64

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
	hostBW, rackBW := spec.LinkCapacities(c.NetBW)
	n := c.Size()
	racks := (n + spec.HostsPerRack - 1) / spec.HostsPerRack
	f := &Fabric{
		eng:          eng,
		nodes:        n,
		hostsPerRack: spec.HostsPerRack,
		racks:        racks,
		hostBW:       hostBW,
		rackBW:       rackBW,
		links:        make([]link, 2*n+2*racks),
	}
	for i := 0; i < 2*n; i++ {
		f.links[i].cap = f.hostBW
	}
	for i := 2 * n; i < len(f.links); i++ {
		f.links[i].cap = f.rackBW
	}
	for i := range f.links {
		f.links[i].hpos = -1
	}
	return f, nil
}

// Racks returns the number of racks.
func (f *Fabric) Racks() int { return f.racks }

// RackOf returns the rack holding a node: racks are contiguous NodeID
// blocks of HostsPerRack nodes.
func (f *Fabric) RackOf(id cluster.NodeID) int { return int(id) / f.hostsPerRack }

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
//
// bytes ≤ 0 and src == dst panic as internal invariants, not input
// errors: the only caller, MapAttempt.beginFetch, skips empty blocks and
// never picks the fetching node as a replica source.
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
//
// bytes ≤ 0 panics as an internal invariant, not an input error: the only
// callers, MapAttempt.beginFetch and reduceRun.startShuffle, start a flow
// only for a positive byte count.
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
	fl := &Flow{
		id:       f.nextID,
		label:    label,
		dst:      dst,
		src:      src,
		total:    float64(bytes),
		start:    now,
		lastSync: now,
		onDone:   onDone,
	}
	fl.complete = func() { f.finish(fl) }
	return fl
}

// admit registers the flow on the active list and its links' lists, emits
// its trace event, and reshares bandwidth.
func (f *Fabric) admit(fl *Flow) {
	f.active = append(f.active, fl)
	for i := 0; i < fl.npath; i++ {
		l := &f.links[fl.path[i]]
		fl.slot[i] = int32(len(l.flows))
		l.flows = append(l.flows, fl)
	}
	f.Trace.NetFlowStart(fl.label, fl.dst, fl.src, int64(fl.total), fl.cross)
	f.recompute(fl)
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
	f.recompute(fl)
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
	fl.ev.Cancel()
	fl.ev = sim.Handle{}
	f.remove(fl)
	transferred := int64(fl.done + 0.5)
	f.account(fl, transferred)
	f.Trace.NetFlowEnd(fl.label, fl.dst, transferred, fl.cross, sim.Duration(now-fl.start), true)
	f.recompute(fl)
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

// remove detaches a flow from the active set, preserving start order, and
// swap-deletes it from its links' lists.
func (f *Fabric) remove(fl *Flow) {
	for i, cand := range f.active {
		if cand == fl {
			copy(f.active[i:], f.active[i+1:])
			f.active[len(f.active)-1] = nil
			f.active = f.active[:len(f.active)-1]
			break
		}
	}
	for i := 0; i < fl.npath; i++ {
		li := fl.path[i]
		l := &f.links[li]
		last := l.flows[len(l.flows)-1]
		l.flows[fl.slot[i]] = last
		for j := 0; j < last.npath; j++ {
			if last.path[j] == li {
				last.slot[j] = fl.slot[i]
			}
		}
		l.flows[len(l.flows)-1] = nil
		l.flows = l.flows[:len(l.flows)-1]
	}
}

// recompute reshares bandwidth after fl started, finished or was
// canceled. Max-min fair rates split across the connected components of
// the flow–link graph, so only the component fl's links reach can move:
// it folds every active flow's progress in at its old rate, refills that
// component by progressive filling and reschedules the completion events
// of its flows whose rate changed. A removed flow is already off its
// links' lists, so the walk from its links covers every piece its old
// component split into. Flows outside keep their rate and their event.
func (f *Fabric) recompute(fl *Flow) {
	if len(f.active) == 0 {
		return
	}
	now := f.eng.Now()
	// Fold in progress at the old rates for every flow, not only the
	// component's: folding at each change fixes done's float rounding,
	// and Cancel's byte counts with it.
	for _, o := range f.active {
		o.sync(now)
	}
	f.recomputes++
	f.synced += int64(len(f.active))
	// Walk the component breadth first, with the heap slice as the queue:
	// put each reached link into play once with its full capacity, and
	// mark each reached flow unfrozen (rate -1). The previous fill drained
	// the heap, so hpos < 0 marks a link not yet reached in this one.
	for i := 0; i < fl.npath; i++ {
		f.play(fl.path[i])
	}
	for q := 0; q < len(f.heap); q++ {
		for _, o := range f.links[f.heap[q]].flows {
			if o.rate < 0 {
				continue
			}
			o.prev, o.rate = o.rate, -1
			f.filled++
			for i := 0; i < o.npath; i++ {
				f.play(o.path[i])
			}
		}
	}
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.down(i)
	}
	// Progressive filling: freeze the unfrozen flows crossing the
	// most-contended link at that link's equal share, release their
	// claims, re-key the links that changed, repeat. Every unfrozen flow
	// keeps its links' cnt > 0, so the heap empties exactly when the last
	// flow freezes.
	for len(f.heap) > 0 {
		best := &f.links[f.heap[0]]
		bestShare := best.share
		if bestShare <= 0 {
			// Float rounding at epsilon scale; keep rates positive so
			// completion events stay finite.
			bestShare = 1e-9
		}
		for _, o := range best.flows {
			if o.rate >= 0 {
				continue
			}
			o.rate = bestShare
			for i := 0; i < o.npath; i++ {
				li := o.path[i]
				l := &f.links[li]
				l.cnt--
				l.capRem -= bestShare
				if l.capRem < 0 {
					l.capRem = 0
				}
				if !l.dirty {
					l.dirty = true
					f.dirty = append(f.dirty, li)
				}
			}
		}
		// Re-key only once the round is over: a link crossed by several
		// frozen flows must be keyed on its final capRem/cnt.
		for _, li := range f.dirty {
			l := &f.links[li]
			l.dirty = false
			if l.cnt == 0 {
				f.heapRemove(li)
			} else {
				l.share = l.capRem / float64(l.cnt)
				f.heapFix(li)
			}
		}
		f.dirty = f.dirty[:0]
	}
	// Reschedule only flows whose rate actually changed: an unchanged rate
	// means the previously scheduled completion instant is still exact.
	// Setting prev keeps rate == prev for flows the next fills leave out.
	for _, o := range f.active {
		if o.rate == o.prev {
			continue
		}
		o.prev = o.rate
		rem := o.total - o.done
		if rem < 0 {
			rem = 0
		}
		o.ev.Cancel()
		o.ev = f.eng.After(sim.Duration(rem/o.rate), "net-flow-done", o.complete)
	}
}

// play puts link li into play for the current fill, unless it already is
// or no active flow crosses it.
func (f *Fabric) play(li int32) {
	l := &f.links[li]
	if l.hpos >= 0 || len(l.flows) == 0 {
		return
	}
	l.capRem = l.cap
	l.cnt = int32(len(l.flows))
	l.share = l.capRem / float64(l.cnt)
	l.hpos = int32(len(f.heap))
	f.heap = append(f.heap, li)
}

// heapLess orders links in play by (share, index): the lowest share is
// the bottleneck, and equal shares break on the lower link index.
func (f *Fabric) heapLess(a, b int32) bool {
	sa, sb := f.links[a].share, f.links[b].share
	return sa < sb || (sa == sb && a < b)
}

// heapSwap exchanges heap slots i and j and their links' positions.
func (f *Fabric) heapSwap(i, j int) {
	h := f.heap
	h[i], h[j] = h[j], h[i]
	f.links[h[i]].hpos = int32(i)
	f.links[h[j]].hpos = int32(j)
}

// up sifts heap slot i toward the root.
func (f *Fabric) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !f.heapLess(f.heap[i], f.heap[p]) {
			return
		}
		f.heapSwap(i, p)
		i = p
	}
}

// down sifts heap slot i toward the leaves and reports whether it moved.
func (f *Fabric) down(i int) bool {
	i0, n := i, len(f.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && f.heapLess(f.heap[r], f.heap[c]) {
			c = r
		}
		if !f.heapLess(f.heap[c], f.heap[i]) {
			break
		}
		f.heapSwap(i, c)
		i = c
	}
	return i > i0
}

// heapFix restores heap order after link li's key changed.
func (f *Fabric) heapFix(li int32) {
	if i := int(f.links[li].hpos); !f.down(i) {
		f.up(i)
	}
}

// heapRemove takes link li out of the heap.
func (f *Fabric) heapRemove(li int32) {
	i, n := int(f.links[li].hpos), len(f.heap)-1
	f.heapSwap(i, n)
	f.heap = f.heap[:n]
	f.links[li].hpos = -1
	if i < n {
		f.heapFix(f.heap[i])
	}
}

// LinkStats summarizes every link: bytes carried by ended flows and mean
// utilization from t=0 to the engine's clock, which a finished run stops
// at its last job's finish. Host links come first (up then down), then
// rack uplinks and downlinks.
func (f *Fabric) LinkStats() []LinkStat {
	now := float64(f.eng.Now())
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
