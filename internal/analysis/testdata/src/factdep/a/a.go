// Package a exports a wall-clock reader; package b calls it. detrand
// flags the helper at its source, the time import.
package a

import "time" // want detrand:"package .* imports time"

// WallNow reads the wall clock.
func WallNow() int64 {
	return time.Now().UnixNano()
}
