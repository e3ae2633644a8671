package core

// Algorithm 1 of the paper: dynamic map task sizing. Every node starts at
// one block unit. The size unit s_i grows *vertically* from observed task
// productivity — doubling below FastLimit, adding one BU below
// LinearLimit, frozen above it — and the dispatched task size m_i grows
// *horizontally* as s_i × (speed_i / speed_slowest).

// Productivity thresholds from §III-E.
const (
	FastLimit   = 0.8
	LinearLimit = 0.9
)

// maxBUs caps a single task's size; the paper's largest observed task was
// 64 BUs = 512 MB.
const maxBUs int = 64

// Sizer tracks per-node size units and applies Algorithm 1. Per-node
// state is flat slices indexed by the dense node id (grown on demand), so
// the sizing loops in fairShare walk contiguous memory at 10k nodes.
type Sizer struct {
	units  []int // node id → s_i in BUs; 0 = default 1
	frozen []bool

	// epoch increments whenever any node's unit or frozen flag changes,
	// so sizing-derived caches (the AM's one-wave total) key on it.
	epoch uint64
}

// NewSizer returns a sizer with every node at one BU.
func NewSizer() *Sizer {
	return &Sizer{}
}

// Epoch returns the sizing epoch: it increments on every vertical-scaling
// state change, so a cache keyed on it is valid exactly while every s_i
// stands still.
func (s *Sizer) Epoch() uint64 { return s.epoch }

// grow ensures the per-node slices cover node.
func (s *Sizer) grow(node int) {
	if node < len(s.units) {
		return
	}
	units := make([]int, node+1)
	copy(units, s.units)
	s.units = units
	frozen := make([]bool, node+1)
	copy(frozen, s.frozen)
	s.frozen = frozen
}

// SizeUnit returns s_i for a node (≥ 1 BU).
func (s *Sizer) SizeUnit(node int) int {
	if node >= 0 && node < len(s.units) && s.units[node] > 0 {
		return s.units[node]
	}
	return 1
}

// Frozen reports whether the node's size unit has stopped growing.
func (s *Sizer) Frozen(node int) bool {
	return node >= 0 && node < len(s.frozen) && s.frozen[node]
}

// ApplyFeedback performs vertical scaling from a completed attempt's
// productivity. Growth is self-clocking: only attempts launched at (or
// beyond) the node's *current* size unit count, so a wave of stale
// smaller tasks completing out of order cannot re-trigger doubling —
// each growth step requires evidence from the size it produced. This is
// the paper's once-per-wave rule generalized to nodes with many
// concurrent containers.
func (s *Sizer) ApplyFeedback(node, taskBUs int, productivity float64) {
	if node < 0 || s.Frozen(node) || taskBUs < s.SizeUnit(node) {
		return
	}
	u := s.SizeUnit(node)
	switch {
	case productivity < FastLimit:
		u *= 2
	case productivity < LinearLimit:
		u++
	default:
		s.grow(node)
		s.frozen[node] = true
		s.epoch++
		return
	}
	if u > maxBUs {
		u = maxBUs
	}
	s.grow(node)
	if s.units[node] != u {
		s.units[node] = u
		s.epoch++
	}
}

// TaskSize performs horizontal scaling: m_i = s_i × relSpeed rounded to
// the nearest BU, clamped to [1, maxBUs]. relSpeed is the node's speed
// relative to the slowest node. Rounding (not flooring) matches the
// paper's m_i: a node measured 2.9× the slowest deserves a 3-BU-per-unit
// task, and truncation systematically under-sizes fast nodes whose
// relative speed sits just below an integer.
func (s *Sizer) TaskSize(node int, relSpeed float64) int {
	if relSpeed < 1 {
		relSpeed = 1
	}
	m := int(float64(s.SizeUnit(node))*relSpeed + 0.5)
	if m < 1 {
		m = 1
	}
	if m > maxBUs {
		m = maxBUs
	}
	return m
}
