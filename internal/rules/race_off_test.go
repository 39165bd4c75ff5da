//go:build !race

package rules

const raceEnabled = false
