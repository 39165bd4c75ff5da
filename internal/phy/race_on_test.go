//go:build race

package phy

// raceEnabled reports whether the race detector is compiled in: it adds
// allocations of its own, so exact allocation counts are not comparable.
const raceEnabled = true
