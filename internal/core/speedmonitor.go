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
	samples cluster.NodeTable[ipsRing] // recent round samples of the nodes that reported
	ticker  *sim.Ticker

	// epoch increments whenever any node's window changes (push or
	// reset), for caches that derive from the speeds.
	epoch uint64

	// The slowest and fastest measured speeds, memoized so RelativeSpeed
	// costs a lookup and a division instead of a scan of the windows.
	// A window change folds the window's new mean in, and drops the memo
	// only when the old mean was one of the two extremes: with it gone,
	// only a rescan knows the next one.
	extValid bool
	slowest  float64 // least positive windowed speed; 0 when none
	fastest  float64 // greatest windowed speed; 0 when none
}

// ipsRing is a fixed-capacity ring of the last ipsWindow IPS samples.
// Replacing the former grow-and-reslice []float64 removes the periodic
// reallocation on every window slide.
type ipsRing struct {
	buf  [ipsWindow]float64
	head int     // next write position
	n    int     // valid samples, ≤ ipsWindow
	avg  float64 // mean(), kept current by push
}

func (r *ipsRing) push(v float64) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % ipsWindow
	if r.n < ipsWindow {
		r.n++
	}
	r.avg = r.mean()
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
	m := &SpeedMonitor{driver: d}
	// Nodes report only while they run the job's attempts: at most one
	// node per input BU, retries and speculative copies aside.
	m.samples.SetFleet(d.Cluster.Size())
	if f, ok := d.Store.File(d.Spec.InputFile); ok {
		m.samples.Reserve(min(d.Cluster.Size(), len(f.BUs)))
	}
	m.ticker = sim.NewTicker(d.Eng, HeartbeatPeriod, "heartbeat", m.round)
	d.OnFinished(m.Stop)
	return m
}

// Stop halts the heartbeat ticker.
func (m *SpeedMonitor) Stop() { m.ticker.Stop() }

// round collects one heartbeat round of IPS reports: one batched timer
// event sweeping the job's running attempts in NodeID order, instead of
// one event per node. Sampling a node reads only driver/attempt state,
// never another node's window, so the sweep equals the per-node loop it
// replaced; a node running nothing reports nothing.
func (m *SpeedMonitor) round(now sim.Time) {
	var (
		node    *cluster.Node
		sum     float64
		reports int
	)
	for _, a := range m.driver.RunningMaps() {
		if a.Node != node {
			m.report(node, sum, reports)
			node, sum, reports = a.Node, 0, 0
		}
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
	m.report(node, sum, reports)
}

// report pushes a node's round sample, the mean of its reports' IPS.
func (m *SpeedMonitor) report(node *cluster.Node, sum float64, reports int) {
	if reports == 0 {
		return
	}
	ips := sum / float64(reports)
	m.push(node.ID, ips)
	if tr := m.driver.Trace; tr.Enabled() {
		tr.Heartbeat(node.ID, ips, m.GetSpeed(node.ID), false)
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
	r := m.samples.Put(id)
	old := r.avg
	r.push(ips)
	m.fold(old, r.avg)
}

// fold moves the memoized extremes along with one window whose mean went
// from old to cur, and bumps the epoch. Folding into a dropped memo is
// harmless: the next read rescans.
func (m *SpeedMonitor) fold(old, cur float64) {
	m.epoch++
	if old > 0 && (old == m.slowest || old == m.fastest) {
		m.extValid = false
	} else if cur > 0 {
		if m.slowest == 0 || cur < m.slowest {
			m.slowest = cur
		}
		if cur > m.fastest {
			m.fastest = cur
		}
	}
}

// ResetNode clears a node's IPS window. Called when a node rejoins after
// a crash: pre-crash samples describe machine state that no longer
// exists (cold caches, restarted daemons), and stale speeds would
// mis-size the first post-rejoin tasks.
func (m *SpeedMonitor) ResetNode(id cluster.NodeID) {
	if r := m.samples.Get(id); r != nil {
		old := r.avg
		*r = ipsRing{}
		m.fold(old, 0)
	}
}

// GetSpeed returns the node's estimated IPS in bytes/second, or 0 when no
// report has arrived yet.
func (m *SpeedMonitor) GetSpeed(id cluster.NodeID) float64 {
	if r := m.samples.Get(id); r != nil {
		return r.avg
	}
	return 0
}

// Epoch returns the monitor's sample epoch: it increments on every window
// change, so a speed-derived cache keyed on it is valid exactly while no
// new IPS report has arrived.
func (m *SpeedMonitor) Epoch() uint64 { return m.epoch }

// extremes returns the slowest and fastest windowed speeds, 0 when no
// node has a measurement.
func (m *SpeedMonitor) extremes() (slowest, fastest float64) {
	if !m.extValid {
		m.slowest, m.fastest = 0, 0
		m.samples.Each(func(_ cluster.NodeID, r *ipsRing) {
			if s := r.avg; s > 0 {
				if m.slowest == 0 || s < m.slowest {
					m.slowest = s
				}
				if s > m.fastest {
					m.fastest = s
				}
			}
		})
		m.extValid = true
	}
	return m.slowest, m.fastest
}

// RelativeSpeed returns the node's speed normalized to the slowest node
// with a measurement (≥1 for every measured node). A node without
// measurements reports 1.0 — indistinguishable from the slowest, which
// is exactly the paper's conservative starting assumption.
func (m *SpeedMonitor) RelativeSpeed(id cluster.NodeID) float64 {
	s := m.GetSpeed(id)
	slowest, _ := m.extremes()
	if s <= 0 || slowest <= 0 {
		return 1.0
	}
	return s / slowest
}

// Capacity returns the node's capacity c normalized to the fastest
// measured node (c ∈ (0,1]): the quantity the biased reduce dispatcher
// squares. An unmeasured node gets 1.0.
func (m *SpeedMonitor) Capacity(id cluster.NodeID) float64 {
	s := m.GetSpeed(id)
	_, fastest := m.extremes()
	if s <= 0 || fastest <= 0 {
		return 1.0
	}
	return s / fastest
}
