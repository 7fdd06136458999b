//go:build race

package lsh

// The race detector instruments allocations of its own, so the
// AllocsPerRun guards cannot hold under -race; the race job covers this
// package for its concurrency properties, the plain test job for the
// allocation contract.
const raceEnabled = true
