package sim

import "testing"

// lcg is a tiny deterministic generator for benchmark event offsets —
// benchmarks must not pull in seeded-RNG machinery or wall-clock state.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

// BenchmarkScheduleFire measures the steady-state schedule→fire cycle:
// each iteration pushes one event at a pseudo-random future offset and
// pops/fires one, holding a fixed-size pending window so heap depth stays
// constant. allocs/op is the per-event allocation count the free list is
// meant to drive to zero.
func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	r := lcg(1)
	fn := func() {}
	at := func() Time { return e.Now() + Time(1+r.next()%1000)/1000 }
	const window = 1024
	for i := 0; i < window; i++ {
		e.At(at(), "warm", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(at(), "bench", fn)
		e.Step()
	}
}

// BenchmarkScheduleCancelFire interleaves cancellation with firing: per
// iteration one event is scheduled and kept, one is scheduled and
// canceled, and one fires.
func BenchmarkScheduleCancelFire(b *testing.B) {
	e := New()
	r := lcg(2)
	fn := func() {}
	at := func() Time { return e.Now() + Time(1+r.next()%1000)/1000 }
	const window = 512
	for i := 0; i < window; i++ {
		e.At(at(), "warm", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(at(), "keep", fn)
		e.At(at(), "drop", fn).Cancel()
		e.Step()
	}
}

// BenchmarkDrain measures bulk schedule-then-run throughput: 4096 events
// scheduled up front, then the queue runs dry.
func BenchmarkDrain(b *testing.B) {
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New()
		r := lcg(3)
		for j := 0; j < 4096; j++ {
			e.At(Time(1+r.next()%100000)/10, "d", fn)
		}
		e.Run()
	}
}
