//go:build !race

package router_test

const raceEnabled = false
