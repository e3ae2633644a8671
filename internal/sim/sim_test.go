package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	e.At(5, "x", func() { ran = true })
	if got := e.Run(); got != 5 {
		t.Fatalf("Run returned %v, want 5", got)
	}
	if !ran {
		t.Fatal("event did not fire")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []Time
	for _, at := range []Time{9, 3, 7, 1, 5} {
		at := at
		e.At(at, "evt", func() { order = append(order, at) })
	}
	e.Run()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(4, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var firedAt Time
	e.At(10, "outer", func() {
		e.After(5, "inner", func() { firedAt = e.Now() })
	})
	e.Run()
	if firedAt != 15 {
		t.Fatalf("inner fired at %v, want 15", firedAt)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, "past", func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

// A NaN time compares false against everything, so a `t < now` guard
// would let it into the heap, where it orders before and after nothing.
func TestNaNTimePanics(t *testing.T) {
	nan := math.NaN()
	for name, schedule := range map[string]func(e *Engine){
		"At":    func(e *Engine) { e.At(Time(nan), "nan", func() {}) },
		"After": func(e *Engine) { e.After(Duration(nan), "nan", func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a NaN time did not panic", name)
				}
			}()
			schedule(New())
		}()
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(3, "c", func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New()
	ev := e.At(3, "c", func() {})
	ev.Cancel()
	ev.Cancel() // must not panic
	Handle{}.Cancel()
	e.Run()
}

func TestCancelDuringRun(t *testing.T) {
	e := New()
	var later Handle
	fired := false
	e.At(1, "first", func() { later.Cancel() })
	later = e.At(2, "second", func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, "evt", func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %v, want 3", e.Now())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("resume fired %d total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	e := New()
	e.At(1, "only", func() {})
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock at %v, want 100", e.Now())
	}
}

func TestStopHaltsEngine(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "evt", func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	late := e.At(20, "late", func() { t.Error("dropped event fired") })
	e.Run()
	if count != 4 {
		t.Fatalf("fired %d events after Stop, want 4", count)
	}
	if !e.stopped {
		t.Fatal("stopped = false after Stop")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0 (queue dropped)", e.Pending())
	}
	late.Cancel()
	if late.Canceled() {
		t.Fatal("Cancel on a dropped event's handle marked it canceled")
	}
	if e.Step() || e.Fired() != 4 {
		t.Fatalf("Step after Stop fired an event (Fired() = %d)", e.Fired())
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(Time(i), "evt", func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := New()
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(e, 5, "hb", func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.Run()
	want := []Time{5, 10, 15}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero ticker period did not panic")
		}
	}()
	NewTicker(New(), 0, "bad", func(Time) {})
}

// A Handle must stay non-comparable, so handle identity comparison is a
// compile error, and two words, so the func array costs no padding.
func TestHandleShape(t *testing.T) {
	if reflect.TypeOf(Handle{}).Comparable() {
		t.Error("sim.Handle is comparable; == on handles must not compile")
	}
	if got := unsafe.Sizeof(Handle{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Handle{}) = %d, want 16", got)
	}
}

// Regression: Cancel on an event that already fired must be a true no-op —
// it must not retroactively mark the event canceled, and it must not
// cancel a later event that happens to reuse the same storage.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := New()
	h := e.At(1, "fires", func() {})
	e.Run()
	h.Cancel()
	if h.Canceled() {
		t.Fatal("post-fire Cancel retroactively marked the event canceled")
	}

	// The storage of h's event is now on the free list; the next At call
	// reuses it. The stale handle must not be able to cancel the new event.
	fired := false
	h2 := e.At(2, "reused", func() { fired = true })
	h.Cancel() // stale: generation mismatch
	e.Run()
	if !fired {
		t.Fatal("stale handle canceled a recycled event")
	}
	if h2.Canceled() {
		t.Fatal("recycled event reported canceled")
	}
}

// Regression: RunUntil must not advance the clock to the deadline when the
// engine was stopped mid-run — a stopped simulation's Now() reflects the
// last event actually fired.
func TestRunUntilFreezesClockOnStop(t *testing.T) {
	e := New()
	e.At(2, "a", func() {})
	e.At(4, "stop", func() { e.Stop() })
	e.At(6, "never", func() { t.Error("event fired after Stop") })
	if got := e.RunUntil(100); got != 4 {
		t.Fatalf("RunUntil returned %v, want 4 (last fired event)", got)
	}
	if e.Now() != 4 {
		t.Fatalf("clock at %v after Stop, want 4", e.Now())
	}
}

// RunUntil on an engine stopped before the call must not move the clock.
func TestRunUntilAfterStopIsNoOp(t *testing.T) {
	e := New()
	e.At(1, "a", func() {})
	e.Run()
	e.Stop()
	if got := e.RunUntil(50); got != 1 {
		t.Fatalf("RunUntil on stopped engine returned %v, want 1", got)
	}
}

// A canceled event at the heap head whose time is within the deadline must
// not cause RunUntil to fire a live event scheduled past the deadline.
func TestRunUntilSkipsCanceledHeadWithoutOvershoot(t *testing.T) {
	e := New()
	h := e.At(3, "canceled", func() { t.Error("canceled event fired") })
	fired := false
	e.At(10, "late", func() { fired = true })
	h.Cancel()
	e.RunUntil(5)
	if fired {
		t.Fatal("RunUntil fired an event past the deadline")
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %v, want 5", e.Now())
	}
}

// Steady-state scheduling must reuse event storage: after a warm-up, a
// schedule-fire cycle performs zero heap allocations.
func TestSteadyStateNoAllocation(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		e.After(1, "warm", func() {})
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.After(1, "steady", func() {})
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule+fire allocates %v objects/op, want 0", allocs)
	}
}

// Property: for any random batch of events, firing order is sorted by
// (time, insertion order) and every non-canceled event fires exactly once.
func TestPropertyOrderingAndCompleteness(t *testing.T) {
	f := func(times []uint16, seed int64) bool {
		if len(times) > 512 {
			times = times[:512]
		}
		e := New()
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		canceled := map[int]bool{}
		events := make([]Handle, len(times))
		for i, raw := range times {
			i, at := i, Time(raw%1000)
			events[i] = e.At(at, "p", func() { fired = append(fired, rec{at, i}) })
		}
		// Cancel a random subset up-front.
		for i := range events {
			if rng.Intn(4) == 0 {
				events[i].Cancel()
				canceled[i] = true
			}
		}
		e.Run()
		if len(fired)+len(canceled) != len(times) {
			return false
		}
		for k := 1; k < len(fired); k++ {
			a, b := fired[k-1], fired[k]
			if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
				return false
			}
		}
		seen := map[int]bool{}
		for _, r := range fired {
			if seen[r.seq] || canceled[r.seq] {
				return false
			}
			seen[r.seq] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkRandomLoad drives a fresh engine with roots pre-scheduled events
// whose delays and branching come from draw: delays fall on a grid of 8
// instants, and a callback may spawn two children (to depth 2), so
// children often land on the instant their parent fires at. Names carry
// a schedule-order serial. The queue contract must hold: every event
// fires exactly once, time never goes backwards, and same-instant events
// fire in schedule (seq) order — a child sharing an instant with an
// earlier event can only have been scheduled by a callback at that
// instant, so its serial is the larger one.
func checkRandomLoad(t *testing.T, roots int, draw func(n int) int) {
	t.Helper()
	e := New()
	type firing struct {
		at   Time
		name string
	}
	var fired []firing
	e.SetFireObserver(func(at Time, name string) { fired = append(fired, firing{at, name}) })
	serial := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		name := fmt.Sprintf("ev-%04d", serial)
		serial++
		e.After(Duration(draw(8)), name, func() {
			if depth > 0 && draw(2) == 0 {
				spawn(depth - 1)
				spawn(depth - 1)
			}
		})
	}
	for i := 0; i < roots; i++ {
		spawn(2)
	}
	e.Run()
	seen := map[string]bool{}
	for i, f := range fired {
		if seen[f.name] {
			t.Fatalf("event %s fired twice", f.name)
		}
		seen[f.name] = true
		if i > 0 && (f.at < fired[i-1].at || f.at == fired[i-1].at && f.name <= fired[i-1].name) {
			t.Fatalf("firing %d (%v, %s) out of order after (%v, %s)", i, f.at, f.name, fired[i-1].at, fired[i-1].name)
		}
	}
	if len(fired) != serial || e.Pending() != 0 {
		t.Fatalf("%d of %d events fired, %d left pending", len(fired), serial, e.Pending())
	}
}

// TestPropertyCallbackChildrenOrder covers what the up-front batch of
// TestPropertyOrderingAndCompleteness cannot: events scheduled from
// callbacks at the instant they fire.
func TestPropertyCallbackChildrenOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkRandomLoad(t, 50, rand.New(rand.NewSource(seed)).Intn)
	}
}

// FuzzMergeOrder drives the same load from raw bytes, one byte per draw
// (zero once the input runs out).
func FuzzMergeOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0, 7, 3, 3, 0})
	f.Add([]byte{254, 0, 0, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		checkRandomLoad(t, len(data)/2+1, draw)
	})
}
