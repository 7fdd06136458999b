//go:build race

package index_test

// The race detector instruments allocations of its own, so the AllocsPerRun
// guard cannot hold under -race.
const raceEnabled = true
