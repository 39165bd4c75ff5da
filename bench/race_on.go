//go:build race

package main

// raceEnabled reports that the race detector is compiled in; its 5-10x
// slowdown makes every timing meaningless, so the benchmark refuses to run.
const raceEnabled = true
