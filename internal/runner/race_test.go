//go:build race

package runner

// raceEnabled reports that the tests run under the race detector, which
// changes what the allocation counters see.
const raceEnabled = true
