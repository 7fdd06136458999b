//go:build !race

package vptree_test

const raceEnabled = false
