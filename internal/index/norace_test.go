//go:build !race

package index_test

const raceEnabled = false
