// Package core implements the paper's contribution: the FlexMap
// ApplicationMaster with Multi-Block Execution (MBE), Late Task Binding
// (LTB), heartbeat-driven speed monitoring, the dynamic map-sizing
// algorithm (Algorithm 1), and capacity-biased reduce scheduling.
package core

import (
	"flexmap/internal/cluster"
	"flexmap/internal/engine"
	"flexmap/internal/sim"
)

// HeartbeatPeriod is the paper's container→AM heartbeat interval.
const HeartbeatPeriod sim.Duration = 5

// ipsWindow is the number of recent IPS reports averaged per node (§III-D:
// "the average of 5 IPSes reported by containers on the same node").
const ipsWindow = 5

// SpeedMonitor estimates per-node input processing speed (IPS) from
// container heartbeats. Each heartbeat round, every running map attempt on
// a node reports IPS = HDFS_BYTES_READ / (now − taskStart); the node's
// round sample is their mean, and GetSpeed returns the mean of the last
// five round samples, smoothing out record-cost skew across containers.
//
// Attempt completions also contribute a sample (the attempt's lifetime
// IPS) so that tasks shorter than the heartbeat period — the 8 MB tasks
// every node starts with — still inform the estimate.
type SpeedMonitor struct {
	driver  *engine.Driver
	samples []ipsRing // recent round samples, indexed by dense NodeID
	ticker  *sim.Ticker

	// epoch increments whenever any node's window changes (push or
	// reset). RelativeSpeeds is a pure function of the windows, so its
	// result is memoized on it: per-offer callers between heartbeats hit
	// the cache and the hot path costs one comparison instead of an O(n)
	// recompute.
	epoch    uint64
	relAt    uint64 // epoch the relBuf cache was computed at
	relValid bool

	// relBuf is RelativeSpeeds' reused result buffer, indexed by dense
	// NodeID. Every cluster node's entry is overwritten on every
	// recompute, so stale entries can never leak between calls.
	relBuf []float64

	// running is the heartbeat sweep's reused attempt buffer, so a round
	// allocates nothing.
	running []*engine.MapAttempt
}

// ipsRing is a fixed-capacity ring of the last ipsWindow IPS samples.
// Replacing the former grow-and-reslice []float64 removes the periodic
// reallocation on every window slide.
type ipsRing struct {
	buf  [ipsWindow]float64
	head int // next write position
	n    int // valid samples, ≤ ipsWindow
}

func (r *ipsRing) push(v float64) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % ipsWindow
	if r.n < ipsWindow {
		r.n++
	}
}

// mean averages the window, summing oldest-first: float addition is not
// associative, and byte-identical output requires the exact summation
// order of the chronological-slice implementation this ring replaced.
func (r *ipsRing) mean() float64 {
	if r.n == 0 {
		return 0
	}
	start := r.head - r.n
	if start < 0 {
		start += ipsWindow
	}
	var sum float64
	for k := 0; k < r.n; k++ {
		sum += r.buf[(start+k)%ipsWindow]
	}
	return sum / float64(r.n)
}

// NewSpeedMonitor attaches a monitor to the driver's cluster and starts
// the heartbeat ticker.
func NewSpeedMonitor(d *engine.Driver) *SpeedMonitor {
	m := &SpeedMonitor{
		driver:  d,
		samples: make([]ipsRing, d.Cluster.Size()),
	}
	m.ticker = sim.NewTicker(d.Eng, HeartbeatPeriod, "heartbeat", m.round)
	d.OnFinished(m.Stop)
	return m
}

// Stop halts the heartbeat ticker.
func (m *SpeedMonitor) Stop() { m.ticker.Stop() }

// round collects one heartbeat round of IPS reports: one batched timer
// event sweeping every node in cluster order instead of one event per
// node. Sampling a node reads only driver/attempt state, never another
// node's window, so the sweep equals the per-node loop it replaced.
func (m *SpeedMonitor) round(now sim.Time) {
	tr := m.driver.Trace
	for _, node := range m.driver.Cluster.Nodes {
		m.running = m.driver.RunningMapsInto(node.ID, m.running[:0])
		var sum float64
		reports := 0
		for _, a := range m.running {
			if remoteHeavy(a) {
				continue
			}
			elapsed := float64(now - a.Start)
			if elapsed <= 0 {
				continue
			}
			sum += float64(a.ProcessedBytes(now)) / elapsed
			reports++
		}
		if reports == 0 {
			continue
		}
		ips := sum / float64(reports)
		m.push(node.ID, ips)
		if tr.Enabled() {
			tr.Heartbeat(node.ID, ips, m.GetSpeed(node.ID), false)
		}
	}
}

// ReportCompletion feeds an attempt's lifetime IPS into the estimate.
func (m *SpeedMonitor) ReportCompletion(a *engine.MapAttempt) {
	if remoteHeavy(a) {
		return
	}
	runtime := float64(m.driver.Eng.Now() - a.Start)
	if runtime <= 0 {
		return
	}
	ips := float64(a.Bytes) / runtime
	m.push(a.Node.ID, ips)
	if tr := m.driver.Trace; tr.Enabled() {
		tr.Heartbeat(a.Node.ID, ips, m.GetSpeed(a.Node.ID), true)
	}
}

// remoteHeavy reports whether an attempt is a speculative duplicate
// reading mostly remote BUs. Such an attempt's IPS is bounded by the
// network fetch, not the executing node's compute speed, so feeding it
// into the node's window would drag a fast node's estimate toward the
// network rate and mis-size its next tasks. Original (non-speculative)
// attempts are node-local by construction of Late Task Binding, so this
// only ever excludes speculation duplicates.
func remoteHeavy(a *engine.MapAttempt) bool {
	return a.Speculative && a.RemoteBytes*2 >= a.Bytes
}

func (m *SpeedMonitor) push(id cluster.NodeID, ips float64) {
	if int(id) >= len(m.samples) {
		grown := make([]ipsRing, int(id)+1)
		copy(grown, m.samples)
		m.samples = grown
	}
	m.samples[id].push(ips)
	m.epoch++
}

// ResetNode clears a node's IPS window. Called when a node rejoins after
// a crash: pre-crash samples describe machine state that no longer
// exists (cold caches, restarted daemons), and stale speeds would
// mis-size the first post-rejoin tasks.
func (m *SpeedMonitor) ResetNode(id cluster.NodeID) {
	if int(id) < 0 || int(id) >= len(m.samples) {
		return
	}
	m.samples[id] = ipsRing{}
	m.epoch++
}

// GetSpeed returns the node's estimated IPS in bytes/second, or 0 when no
// report has arrived yet.
func (m *SpeedMonitor) GetSpeed(id cluster.NodeID) float64 {
	if int(id) < 0 || int(id) >= len(m.samples) {
		return 0
	}
	return m.samples[id].mean()
}

// Epoch returns the monitor's sample epoch: it increments on every window
// change, so a speed-derived cache keyed on it is valid exactly while no
// new IPS report has arrived.
func (m *SpeedMonitor) Epoch() uint64 { return m.epoch }

// speedsInto fills buf with each node's current IPS, indexed by NodeID
// (Cluster.Nodes[i].ID == i), growing it to the cluster's size.
func (m *SpeedMonitor) speedsInto(buf []float64) []float64 {
	nodes := m.driver.Cluster.Nodes
	if cap(buf) < len(nodes) {
		buf = make([]float64, len(nodes))
	}
	buf = buf[:len(nodes)]
	for i := range buf {
		buf[i] = m.GetSpeed(cluster.NodeID(i))
	}
	return buf
}

// RelativeSpeeds returns each node's speed normalized to the slowest node
// with a measurement (≥1 for all measured nodes), indexed by NodeID.
// Nodes without measurements report 1.0 — indistinguishable from the
// slowest, which is exactly the paper's conservative starting assumption.
//
// The returned slice is owned by the monitor and reused: it is valid
// until the next RelativeSpeeds call. Callers must not retain it.
func (m *SpeedMonitor) RelativeSpeeds() []float64 {
	if m.relValid && m.relAt == m.epoch {
		return m.relBuf
	}
	m.relValid, m.relAt = true, m.epoch
	rel := m.speedsInto(m.relBuf)
	m.relBuf = rel
	slowest := 0.0
	for _, s := range rel {
		if s > 0 && (slowest == 0 || s < slowest) {
			slowest = s
		}
	}
	for i, s := range rel {
		if s <= 0 || slowest <= 0 {
			rel[i] = 1.0
			continue
		}
		rel[i] = s / slowest
	}
	return rel
}

// NormalizedCapacities returns each node's capacity c_i normalized to the
// fastest measured node (c ∈ (0,1]), indexed by NodeID: the quantity the
// biased reduce dispatcher squares. Unmeasured nodes get 1.0. The biased
// dispatcher reads it once per job, so it computes a fresh slice on
// every call.
func (m *SpeedMonitor) NormalizedCapacities() []float64 {
	caps := m.speedsInto(nil)
	fastest := 0.0
	for _, s := range caps {
		if s > fastest {
			fastest = s
		}
	}
	for i, s := range caps {
		if s <= 0 || fastest <= 0 {
			caps[i] = 1.0
			continue
		}
		caps[i] = s / fastest
	}
	return caps
}
