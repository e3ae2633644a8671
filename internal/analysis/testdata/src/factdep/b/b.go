// Package b consumes package a's facts. Tests load it under a virtual
// import path inside the workload scope, so lockheld and timescope both
// report here purely from facts exported while package a was analyzed.
package b

import "flexmap/internal/analysis/testdata/src/factdep/a"

func readsUnlocked(s *a.Shared) int {
	return s.Count // want lockheld:"guarded by Mu"
}

func readsLocked(s *a.Shared) int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.Count
}

func callsWallClock() int64 {
	return a.WallNow() // want timescope:"reads the wall clock"
}
