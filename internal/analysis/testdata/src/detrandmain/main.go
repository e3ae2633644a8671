// Package main has the body of the detrand testdata package. Commands
// may time themselves, so detrand reports nothing here.
package main

import (
	"math/rand"
	"time"

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
	_ = rand.Intn(10)
	_ = rand.Float64()
	rand.Shuffle(3, func(i, j int) {})
}

func timeSeeded() rand.Source {
	return rand.NewSource(WallNow())
}

func allowed(r record) float64 {
	src := randutil.New(42)
	_ = src.Split("noise").Intn(10)
	return src.Float64() + r.span.Seconds()
}
