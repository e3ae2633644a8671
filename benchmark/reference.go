package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// On a shared host the speed of memory-bound code shifts by up to a third
// for stretches of seconds to minutes, which no median within one run can
// remove. An untraced run therefore times a fixed reference kernel before
// its first simulation and after each one, and scales each simulation's
// times by refNominalS over the mean of the kernel's times just before and
// just after it. The result reads as the time the simulation would have
// taken on the recorded host at its usual speed.
//
// The kernel does the kinds of work the simulator's event loop does, and
// none of the simulator's code, so a change to the simulator cannot move
// it: a sort of 2^20 ints, 2.6 M lookups in a 64 K-entry map, and 2 M
// short-lived allocations of which one in eight survives the kernel.

// refNominalS is the kernel's median time on the recorded host.
const refNominalS = 0.33

type reference struct {
	src, buf []int
	m        map[int]int
	sink     int
}

type refObj struct {
	next *refObj
	v    [4]int
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{src: make([]int, 1<<20), buf: make([]int, 1<<20), m: map[int]int{}}
	for i := range r.src {
		r.src[i] = rng.Int()
	}
	for i := 0; i < 1<<16; i++ {
		r.m[i*7919] = i
	}
	return r
}

// seconds runs the kernel once and returns its host time. It collects the
// kernel's garbage before it returns, so that no collection is left
// running beside the next simulation.
func (r *reference) seconds() float64 {
	defer runtime.GC()
	start := time.Now()
	copy(r.buf, r.src)
	sort.Ints(r.buf)
	sum := r.buf[0]
	for j := 0; j < 40; j++ {
		for i := 0; i < 1<<16; i++ {
			sum += r.m[i*7919]
		}
	}
	var keep []*refObj
	for i := 0; i < 2_000_000; i++ {
		o := &refObj{v: [4]int{i}}
		if i%8 == 0 {
			keep = append(keep, o)
		}
	}
	r.sink += sum + len(keep)
	return time.Since(start).Seconds()
}
