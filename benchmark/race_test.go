//go:build race

package main

// raceEnabled reports that the tests run under the race detector, whose
// own work takes a large share of any CPU profile.
const raceEnabled = true
