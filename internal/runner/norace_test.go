//go:build !race

package runner

const raceEnabled = false
