// Package a exports a guarded field and a wall-clock reader; package b
// consumes both through the fact layer. This package's own import path
// sits outside every reporting scope, so the analyzers export facts here
// without reporting.
package a

import (
	"sync"
	"time"
)

type Shared struct {
	Mu sync.Mutex
	// Count tallies things. guarded by Mu
	Count int
}

// WallNow reads the wall clock — timescope exports a wall-clock fact.
func WallNow() int64 {
	return time.Now().UnixNano()
}
