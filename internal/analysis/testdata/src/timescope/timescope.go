// Package tstest holds the wall-clock shapes a simulation package must
// not contain: wall-clock reads and time.Time/time.Duration
// declarations. detrand reports them all through the one time import.
package tstest

import "time" // want detrand:"package .* imports time"

type record struct {
	stamp time.Time
	span  time.Duration
}

func nowStamp() int64 {
	return time.Now().UnixNano()
}

func wait(d time.Duration) {
	time.Sleep(d)
}

func sinceStart(start time.Time) time.Duration {
	return time.Since(start)
}

func useRecord(r record) (int64, float64) {
	return r.stamp.UnixNano(), r.span.Seconds()
}
