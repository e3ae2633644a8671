// Package speculate implements the LATE (Longest Approximate Time to End)
// speculative-execution policy of Zaharia et al. (OSDI 2008), which YARN's
// stock speculator derives from and which the paper's "stock Hadoop"
// baseline runs.
//
// LATE's rules, as realized here:
//
//   - Cap speculative copies at a fraction of cluster slots.
//   - Never launch speculative work on a slow node (bottom quartile of
//     node speeds) — a copy there would lose the race anyway.
//   - Only speculate tasks whose progress rate is in the bottom quartile.
//   - Among eligible stragglers, duplicate the one with the longest
//     estimated time to completion.
//   - One speculative copy per task, and only when no pending original
//     work exists (the last-wave rule) — both enforced by the caller.
package speculate

import (
	"math/bits"
	"sort"

	"flexmap/internal/cluster"
	"flexmap/internal/engine"
	"flexmap/internal/sim"
)

// LATE's canonical thresholds.
const (
	// specCapFraction bounds in-flight speculative copies to this
	// fraction of total cluster slots.
	specCapFraction = 0.10
	// slowTaskPercentile: tasks with progress rates below this percentile
	// are speculation candidates.
	slowTaskPercentile = 0.25
	// slowNodePercentile: nodes with speed below this percentile never
	// receive speculative copies.
	slowNodePercentile = 0.25
	// minAge is the minimum attempt age before its progress rate is
	// considered meaningful (covers startup overhead).
	minAge sim.Duration = 3
	// thresholdBand is the relative half-width of the band around the
	// last slow-task threshold that a probe selects within first.
	thresholdBand = 0.02
)

// LATE is the policy. The zero value is ready to use; NewLATE is
// equivalent.
type LATE struct {
	// Per-probe scratch, reused across calls (one policy serves one AM)
	// and free of pointers, so filling it costs no write barriers: the
	// mature attempts' rates, each one's index in the candidate set, and
	// the values the threshold is selected from.
	rates []float64
	index []int32
	pool  []float64

	// threshold is the last probe's slow-task threshold, the centre of
	// the band the next probe selects within first; hasThreshold is false
	// until a probe has set it.
	threshold    float64
	hasThreshold bool

	// walked counts the candidate entries selectVictim has visited,
	// tombstones included. Only tests read it.
	walked int

	// Victim memoized per (instant, candidate-set epoch): everything up to
	// the final node-local freshness check depends only on the candidate
	// set and the clock, and AMs probe every idle node at the same instant.
	pickAt     sim.Time
	pickEpoch  uint64
	pickValid  bool
	pickVictim *engine.MapAttempt
	pickWorst  sim.Duration
}

// NewLATE returns a policy with the canonical thresholds.
func NewLATE() *LATE { return &LATE{} }

// Pick implements engine.SpeculationPolicy.
func (l *LATE) Pick(d *engine.Driver, node *cluster.Node, candidates []*engine.MapAttempt, candEpoch uint64, activeSpec int) *engine.MapAttempt {
	if len(candidates) == 0 || activeSpec >= l.cap(d) {
		return nil
	}
	if l.nodeIsSlow(d.Cluster, node) {
		return nil
	}
	victim, worst := l.victim(d.Eng.Now(), candidates, candEpoch)
	if victim == nil {
		return nil
	}
	// A copy is only worth launching if the idle node could beat the
	// current attempt: compare estimated fresh runtime against the
	// straggler's estimated remaining time.
	fresh := engine.Overhead + engine.MapEffective(victim.Bytes, d.Spec.MapCost, node.Speed())
	if fresh >= worst {
		return nil
	}
	return victim
}

// Idle implements engine.SpeculationPolicy: Pick declines every node
// when there is nothing to duplicate, the cap is reached, no mature
// attempt ranks as a straggler at this instant, or even the fastest
// member's fresh copy would not beat the straggler. MapEffective only
// falls as speed rises, so no slower node's copy could either. The
// slow-node check is left to Pick.
func (l *LATE) Idle(d *engine.Driver, candidates []*engine.MapAttempt, candEpoch uint64, activeSpec int) bool {
	if len(candidates) == 0 || activeSpec >= l.cap(d) {
		return true
	}
	victim, worst := l.victim(d.Eng.Now(), candidates, candEpoch)
	if victim == nil {
		return true
	}
	speeds := d.Cluster.SortedSpeeds()
	fastest := speeds[len(speeds)-1]
	return engine.Overhead+engine.MapEffective(victim.Bytes, d.Spec.MapCost, fastest) >= worst
}

// cap is the in-flight speculative copy limit: specCapFraction of the
// cluster's slots, at least one.
func (l *LATE) cap(d *engine.Driver) int {
	c := int(specCapFraction * float64(d.Cluster.TotalSlots()))
	if c < 1 {
		c = 1
	}
	return c
}

// victim returns the straggler to duplicate and its estimated remaining
// time. The choice is independent of the probing node, so it is memoized
// per (instant, candidate-set epoch): every idle node probed at the same
// instant, and Idle, see the same candidate ranking.
func (l *LATE) victim(now sim.Time, candidates []*engine.MapAttempt, candEpoch uint64) (*engine.MapAttempt, sim.Duration) {
	if !l.pickValid || l.pickAt != now || l.pickEpoch != candEpoch {
		l.pickVictim, l.pickWorst = l.selectVictim(now, candidates)
		l.pickAt, l.pickEpoch, l.pickValid = now, candEpoch, true
	}
	return l.pickVictim, l.pickWorst
}

// selectVictim ranks the candidate set at the given instant: progress
// rates for mature attempts, the slow-task percentile threshold, and the
// below-threshold attempt with the longest estimated remaining time.
// The set is in launch order (see engine.SpeculationPolicy), so the scan
// skips tombstones and stops at the first attempt younger than minAge:
// every live entry after it is younger still.
func (l *LATE) selectVictim(now sim.Time, candidates []*engine.MapAttempt) (*engine.MapAttempt, sim.Duration) {
	// Progress rates for mature attempts (scratch reused across calls).
	l.rates = l.rates[:0]
	l.index = l.index[:0]
	walked := len(candidates)
	for i, a := range candidates {
		if a == nil {
			continue
		}
		age := sim.Duration(now - a.Start)
		if age < minAge {
			walked = i + 1
			break
		}
		// A candidate killed by a silent node crash lingers in the set
		// until heartbeat-timeout delivery; duplicating it would race a
		// corpse.
		if a.Killed() {
			continue
		}
		l.rates = append(l.rates, a.Progress(now)/float64(age))
		l.index = append(l.index, int32(i))
	}
	l.walked += walked
	if len(l.rates) == 0 {
		return nil, -1
	}
	threshold := l.slowThreshold()

	// Among below-threshold tasks, pick the longest estimated time to
	// end, ties to the lexicographically smallest task — a unique winner,
	// so this scan needs no particular order.
	var victim *engine.MapAttempt
	var worst sim.Duration = -1
	for k, r := range l.rates {
		if r > threshold {
			continue
		}
		a := candidates[l.index[k]]
		if rem := a.EstRemaining(now); rem > worst || (rem == worst && victim != nil && a.Task < victim.Task) {
			worst, victim = rem, a
		}
	}
	return victim, worst
}

// slowThreshold returns the rate at the slow-task percentile: the idx-th
// smallest of l.rates, which it leaves unpermuted for the victim pass.
// Only that value is read, and it is the same whichever way the rates
// are ordered around it, so a selection replaces a full sort.
//
// The threshold moves little from one probe to the next, so the probe
// first counts the rates below a band of ±thresholdBand around the last
// one and collects those inside it. When the idx-th smallest falls in
// the band, it is the (idx − below)-th smallest of the band alone;
// otherwise the selection runs over a copy of every rate.
func (l *LATE) slowThreshold() float64 {
	idx := int(slowTaskPercentile * float64(len(l.rates)))
	if idx >= len(l.rates) {
		idx = len(l.rates) - 1
	}
	if l.hasThreshold {
		// Rates are non-negative, so lo ≤ hi.
		lo, hi := l.threshold*(1-thresholdBand), l.threshold*(1+thresholdBand)
		below := 0
		l.pool = l.pool[:0]
		for _, r := range l.rates {
			if r < lo {
				below++
			} else if r <= hi {
				l.pool = append(l.pool, r)
			}
		}
		if k := idx - below; k >= 0 && k < len(l.pool) {
			l.threshold = selectKth(l.pool, k)
			return l.threshold
		}
	}
	l.pool = append(l.pool[:0], l.rates...)
	l.threshold, l.hasThreshold = selectKth(l.pool, idx), true
	return l.threshold
}

// selectKth returns the k-th smallest value of xs (0-based), permuting xs
// in place. It is Hoare's quickselect with the median of the first,
// middle and last elements as pivot, so it is deterministic, and it
// handles duplicates: equal values split evenly across the partition.
// The values are finite progress rates, so < is a total order.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	// Partitions that keep landing badly fall back to a sort of what is
	// left, which bounds the worst case at O(n log n).
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			break
		}
		mid := lo + (hi-lo)/2
		// Median of three, left at xs[mid].
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= pivot <= xs[i..hi], and any gap between j
		// and i holds values equal to pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// nodeIsSlow reports whether the node's speed falls in the bottom
// percentile of member speeds. (LATE estimates node speed from observed
// progress; the simulation uses the node's current effective speed as
// that estimate.) The cluster's sorted table follows its speed epoch:
// joins, releases, crashes and speed changes all bump it.
func (l *LATE) nodeIsSlow(c *cluster.Cluster, node *cluster.Node) bool {
	speeds := c.SortedSpeeds()
	idx := int(slowNodePercentile * float64(len(speeds)))
	if idx >= len(speeds) {
		idx = len(speeds) - 1
	}
	// Strict comparison: nodes AT the percentile speed (e.g. the healthy
	// majority of a mostly-uniform cluster) are not slow, and a uniform
	// fleet has no slow node.
	return speeds[0] != speeds[len(speeds)-1] && node.Speed() < speeds[idx]
}
