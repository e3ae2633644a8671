package main

import (
	"time"

	"flexmap/internal/sim"
)

// probe times one simulation from outside it: the span of the public
// call, the host time before its first event fires, and, when traced,
// the host time from each fired event to the next, charged to the first
// event's name.
type probe struct {
	traced bool

	start, firstFire, stop time.Time
	lastFire               time.Time
	lastName               string

	fires   map[string]fireJSON
	metrics map[string]float64
	// sims counts completed simulations where the harness reports them.
	sims int
	// onEnd, when set, runs right after the span closes.
	onEnd func()
}

func newProbe(traced bool) *probe {
	return &probe{traced: traced, fires: map[string]fireJSON{}, metrics: map[string]float64{}}
}

func (p *probe) begin() { p.start = time.Now() }

// fire is the simulation's fire observer.
func (p *probe) fire(_ sim.Time, name string) {
	if !p.traced {
		if p.firstFire.IsZero() {
			p.firstFire = time.Now()
		}
		return
	}
	now := time.Now()
	if p.firstFire.IsZero() {
		p.firstFire = now
	} else {
		p.charge(now)
	}
	p.lastFire, p.lastName = now, name
}

func (p *probe) charge(now time.Time) {
	f := p.fires[p.lastName]
	f.Calls++
	f.MS += float64(now.Sub(p.lastFire)) / float64(time.Millisecond)
	p.fires[p.lastName] = f
}

// end closes the simulation's span; the last event's span ends here.
func (p *probe) end() {
	p.stop = time.Now()
	if p.traced && p.lastName != "" {
		p.charge(p.stop)
		p.lastName = ""
	}
	if p.onEnd != nil {
		p.onEnd()
	}
}

// setup is the host time before the first event fired, or 0 when no
// event was observed.
func (p *probe) setup() time.Duration {
	if p.firstFire.IsZero() {
		return 0
	}
	return p.firstFire.Sub(p.start)
}

// add adds v to a per-layer metric: a direct span around a public call,
// or a count.
func (p *probe) add(name string, v float64) { p.metrics[name] += v }
