// Package parallel fans independent simulation runs across the
// machine's cores while keeping every property a serial loop has:
//
//   - Ordering: Map returns results in index order, and the first error
//     in index order, regardless of which worker finished first.
//   - Containment: a panicking job becomes that job's error, with the
//     stack attached, not a crashed process.
//
// Map hands jobs no randomness: each simulation seeds itself from its
// scenario, so a run's output does not depend on the worker count.
//
// The experiment harnesses in internal/experiments put every simulation
// of their scenario grid through Map; cmd/paperfigs exposes the worker
// count as -parallel.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Map runs fn(0) … fn(len(names)-1) on at most workers goroutines
// (0 or negative means GOMAXPROCS) and returns the results in index
// order. If any call fails, Map returns the error of the lowest failing
// index, prefixed with that job's name; a panic counts as that job's
// error. Map returns once every call has finished.
//
// progress, when non-nil, is called with (done, total) after each call
// finishes, done rising from 1 to total. It runs on the goroutine that
// called Map, so it needs no synchronization. Which job produced the
// k-th call depends on scheduling; only the counts are deterministic.
func Map[T any](workers int, names []string, fn func(i int) (T, error), progress func(done, total int)) ([]T, error) {
	n := len(names)
	out := make([]T, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	// Every index is queued up front, so the workers drain idx and exit
	// on their own. A worker writes only its own out[i] and errs[i]
	// before signalling on finished; receiving that signal orders the
	// writes before the caller reads them.
	idx := make(chan int, n)
	for i := range n {
		idx <- i
	}
	close(idx)
	finished := make(chan struct{})
	for range workers {
		go func() {
			for i := range idx {
				out[i], errs[i] = call(fn, i)
				finished <- struct{}{}
			}
		}()
	}
	for done := 1; done <= n; done++ {
		<-finished
		if progress != nil {
			progress(done, n)
		}
	}

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
	}
	return out, nil
}

// call runs fn(i), turning a panic into an error that carries the stack.
func call[T any](fn func(int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(i)
}
