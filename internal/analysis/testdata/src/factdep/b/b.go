// Package b consumes package a's facts. Tests load it under a virtual
// import path inside the workload scope, so timescope reports here
// purely from the fact exported while package a was analyzed.
package b

import "flexmap/internal/analysis/testdata/src/factdep/a"

func callsWallClock() int64 {
	return a.WallNow() // want timescope:"reads the wall clock"
}
