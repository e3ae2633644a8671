// Package a exports a wall-clock reader; package b consumes it through
// the fact layer. This package's own import path sits outside every
// reporting scope, so timescope exports the fact here without reporting.
package a

import "time"

// WallNow reads the wall clock — timescope exports a wall-clock fact.
func WallNow() int64 {
	return time.Now().UnixNano()
}
