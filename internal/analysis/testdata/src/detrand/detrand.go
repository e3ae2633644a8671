// Package dtest exercises the detrand analyzer. It is not package main,
// so its time import and its global math/rand draws are findings
// wherever it is loaded. The import is flagged once, at its source: the
// wall-clock read, the time.Duration field and the exported WallNow
// helper below need no findings of their own.
package dtest

import (
	"math/rand"
	"time" // want "package .* imports time"

	"flexmap/internal/randutil"
)

type record struct {
	span time.Duration
}

// WallNow hides a wall-clock read behind an exported helper.
func WallNow() int64 {
	return time.Now().UnixNano()
}

func globalDraws() {
	_ = rand.Intn(10)                  // want "global math/rand\.Intn"
	_ = rand.Float64()                 // want "global math/rand\.Float64"
	rand.Shuffle(3, func(i, j int) {}) // want "global math/rand\.Shuffle"
}

func timeSeeded() rand.Source {
	return rand.NewSource(WallNow())
}

// Allowed shapes: seeded sources via randutil and methods on a concrete
// generator.
func allowed(r record) float64 {
	src := randutil.New(42)
	_ = src.Split("noise").Intn(10)
	return src.Float64() + r.span.Seconds()
}
