// Package b reads the wall clock only through package a. It does not
// import time itself, so detrand reports nothing here: the finding
// belongs to a.
package b

import "flexmap/internal/analysis/testdata/src/factdep/a"

func callsWallClock() int64 {
	return a.WallNow()
}
