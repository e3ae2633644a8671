package sim

// Ticker fires a callback at a fixed virtual-time period until stopped.
// It is the building block for heartbeats and interference processes.
type Ticker struct {
	eng    *Engine
	period Duration
	name   string
	fn     func(Time)
	ev     Handle
	stop   bool
}

// NewTicker schedules fn every period seconds starting at now+period.
// period must be positive.
func NewTicker(eng *Engine, period Duration, name string, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, name: name, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.eng.After(t.period, t.name, func() {
		if t.stop {
			return
		}
		t.fn(t.eng.Now())
		if !t.stop {
			t.arm()
		}
	})
}

// Stop prevents any further ticks. Canceling the pending tick through a
// stale handle (Stop from within the tick callback) is a safe no-op.
func (t *Ticker) Stop() {
	t.stop = true
	t.ev.Cancel()
}
