//go:build !race

package phy

const raceEnabled = false
