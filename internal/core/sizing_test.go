package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizerStartsAtOneBU(t *testing.T) {
	s := NewSizer()
	if s.SizeUnit(0) != 1 || s.SizeUnit(5) != 1 {
		t.Fatal("size unit should start at 1 BU on every node")
	}
	if s.Frozen(0) {
		t.Fatal("fresh sizer should not be frozen")
	}
}

func TestFastScalingDoubles(t *testing.T) {
	s := NewSizer()
	// Productivity below FastLimit doubles the unit at each step.
	for i, want := range []int{2, 4, 8, 16} {
		s.ApplyFeedback(0, s.SizeUnit(0), 0.5)
		if got := s.SizeUnit(0); got != want {
			t.Fatalf("step %d: unit = %d, want %d", i, got, want)
		}
	}
}

func TestLinearScalingAddsOneBU(t *testing.T) {
	s := NewSizer()
	s.ApplyFeedback(0, 1, 0.85) // FastLimit ≤ p < LinearLimit
	if s.SizeUnit(0) != 2 {
		t.Fatalf("unit = %d, want 2", s.SizeUnit(0))
	}
	s.ApplyFeedback(0, 2, 0.85)
	if s.SizeUnit(0) != 3 {
		t.Fatalf("unit = %d, want 3", s.SizeUnit(0))
	}
}

func TestFreezeAboveLinearLimit(t *testing.T) {
	s := NewSizer()
	s.ApplyFeedback(0, 1, 0.95)
	if !s.Frozen(0) {
		t.Fatal("unit should freeze at productivity ≥ LinearLimit")
	}
	if s.SizeUnit(0) != 1 {
		t.Fatal("freezing should not grow the unit")
	}
	// Further feedback is ignored once frozen.
	s.ApplyFeedback(0, 1, 0.1)
	if s.SizeUnit(0) != 1 {
		t.Fatal("frozen unit grew")
	}
}

func TestStaleFeedbackIgnored(t *testing.T) {
	s := NewSizer()
	s.ApplyFeedback(0, 1, 0.5) // unit → 2
	// A straggling 1-BU task completing later must not double again.
	s.ApplyFeedback(0, 1, 0.3)
	if s.SizeUnit(0) != 2 {
		t.Fatalf("stale feedback re-triggered growth: unit = %d", s.SizeUnit(0))
	}
	// Feedback at (or beyond) the current unit does count.
	s.ApplyFeedback(0, 2, 0.5)
	if s.SizeUnit(0) != 4 {
		t.Fatalf("current-size feedback ignored: unit = %d", s.SizeUnit(0))
	}
}

func TestMaxBUsCap(t *testing.T) {
	s := NewSizer()
	for i := 0; i < 10; i++ {
		s.ApplyFeedback(0, s.SizeUnit(0), 0.1)
	}
	if s.SizeUnit(0) != maxBUs {
		t.Fatalf("unit = %d, want capped %d", s.SizeUnit(0), maxBUs)
	}
}

func TestNodesIndependent(t *testing.T) {
	s := NewSizer()
	s.ApplyFeedback(0, 1, 0.5)
	s.ApplyFeedback(0, 2, 0.5)
	if s.SizeUnit(0) != 4 || s.SizeUnit(1) != 1 {
		t.Fatalf("cross-node interference: units %d/%d", s.SizeUnit(0), s.SizeUnit(1))
	}
}

func TestTaskSizeHorizontalScaling(t *testing.T) {
	s := NewSizer()
	s.ApplyFeedback(0, 1, 0.5) // unit = 2
	if got := s.TaskSize(0, 3.0); got != 6 {
		t.Fatalf("TaskSize(rel=3) = %d, want 6", got)
	}
	// Relative speed below 1 clamps to 1 (slowest node defines 1.0).
	if got := s.TaskSize(0, 0.5); got != 2 {
		t.Fatalf("TaskSize(rel=0.5) = %d, want 2", got)
	}
	// The cap applies after scaling.
	if got := s.TaskSize(0, 40); got != maxBUs {
		t.Fatalf("TaskSize capped = %d, want %d", got, maxBUs)
	}
}

// Property: the size unit is non-decreasing under any feedback sequence
// and stays within [1, maxBUs].
func TestPropertySizeUnitMonotone(t *testing.T) {
	f := func(prods []uint8, sizes []uint8) bool {
		s := NewSizer()
		prev := s.SizeUnit(0)
		for i, raw := range prods {
			p := float64(raw) / 255 // [0,1]
			taskBUs := 1
			if len(sizes) > 0 {
				taskBUs = int(sizes[i%len(sizes)]%64) + 1
			}
			s.ApplyFeedback(0, taskBUs, p)
			cur := s.SizeUnit(0)
			if cur < prev || cur < 1 || cur > maxBUs {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (Algorithm 1 invariants): for random speed vectors and random
// feedback histories, horizontal scaling always satisfies the paper's
// three structural guarantees —
//
//  1. every node's dispatched size m_i is at least 1 BU,
//  2. m_i is monotone in speed_i (a faster node never gets a smaller
//     task than a slower node in the same sizing state, and raising one
//     node's relative speed never shrinks its task), and
//  3. the slowest node (relative speed 1) gets exactly its size unit
//     s_i — horizontal scaling never inflates the straggler's tasks.
func TestPropertyAlgorithm1Invariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(10)
		speeds := make([]float64, n)
		slowest, slowIdx := 0.0, 0
		for i := range speeds {
			speeds[i] = 0.1 + 5*rng.Float64()
			if i == 0 || speeds[i] < slowest {
				slowest, slowIdx = speeds[i], i
			}
		}

		s := NewSizer()
		for k, steps := 0, rng.Intn(60); k < steps; k++ {
			node := rng.Intn(n)
			// Mix stale, current and oversized feedback at arbitrary
			// productivities, as an out-of-order parallel wave would.
			taskBUs := 1 + rng.Intn(2*s.SizeUnit(node))
			s.ApplyFeedback(node, taskBUs, rng.Float64()*1.1)
		}

		for i := range speeds {
			rel := speeds[i] / slowest
			m := s.TaskSize(i, rel)
			if m < 1 {
				t.Fatalf("trial %d: node %d got %d BUs, want ≥ 1", trial, i, m)
			}
			if m > maxBUs {
				t.Fatalf("trial %d: node %d got %d BUs above cap %d", trial, i, m, maxBUs)
			}
			// Monotone in this node's own relative speed.
			if faster := s.TaskSize(i, rel*(1+rng.Float64())); faster < m {
				t.Fatalf("trial %d: node %d task shrank from %d to %d when speed rose", trial, i, m, faster)
			}
			// Monotone across nodes in the same sizing state.
			for j := range speeds {
				if s.SizeUnit(j) == s.SizeUnit(i) && speeds[j] >= speeds[i] {
					if mj := s.TaskSize(j, speeds[j]/slowest); mj < m {
						t.Fatalf("trial %d: faster node %d (%.2f) got %d BUs, slower node %d (%.2f) got %d",
							trial, j, speeds[j], mj, i, speeds[i], m)
					}
				}
			}
		}

		// The slowest node gets exactly its size unit.
		if m := s.TaskSize(slowIdx, 1.0); m != s.SizeUnit(slowIdx) {
			t.Fatalf("trial %d: slowest node got %d BUs, want its size unit %d",
				trial, m, s.SizeUnit(slowIdx))
		}
	}
}

// Property: TaskSize is ≥ the size unit for rel ≥ 1 and never exceeds
// maxBUs.
func TestPropertyTaskSizeBounds(t *testing.T) {
	f := func(growth uint8, relRaw uint16) bool {
		s := NewSizer()
		for i := 0; i < int(growth%10); i++ {
			s.ApplyFeedback(0, s.SizeUnit(0), 0.5)
		}
		rel := 1 + float64(relRaw)/8192 // [1, ~9]
		got := s.TaskSize(0, rel)
		return got >= s.SizeUnit(0) && got <= maxBUs || s.SizeUnit(0) > maxBUs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
