// Package ladder measures the cost of each netfi layer in isolation, by
// timing public calls of one package over a fixed input: a 1024-symbol
// data burst, 64 B and 1024 B packets, a 64-rule set. The numbers do not
// depend on the benchmark seed or on the workload of the run that reports
// them; they exist so that a change in a workload's end-to-end numbers has
// a named owner.
package ladder

import (
	"runtime"
	"time"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/spec"
	"netfi/bench/internal/stats"
)

// batches is how many timed batches a rung's median is taken over.
const batches = 5

// perOp times fn(n) — n operations on state prepared by the caller — and
// returns the median nanoseconds per operation over several batches sized
// to fill the budget.
func perOp(budget time.Duration, fn func(n int)) float64 {
	target := budget / (batches + 1)
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= target/2 || n >= 1<<28 {
			break
		}
		if d < target/100 {
			n *= 10
		} else {
			n = int(float64(n)*float64(target)/float64(d)) + 1
		}
	}
	samples := make([]float64, batches)
	for i := range samples {
		t0 := time.Now()
		fn(n)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return stats.Median(samples)
}

// allocsPerOp counts heap objects allocated by fn(n), per operation.
func allocsPerOp(n int, fn func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// rung measures one or more ladder metrics and stores them by name.
type rung func(budget time.Duration, in *gen.Inputs, out map[string]float64)

var rungs = []rung{
	simRungs, phyRungs, myrinetRungs, coreRungs, consoleRungs, rulesRungs,
	bitstreamRungs, hostRungs, monitorRungs, topoRungs, campaignRungs,
}

// Run measures every ladder metric, giving each about perMetric of wall
// time, and returns the values keyed by metric name.
func Run(perMetric time.Duration, in *gen.Inputs) map[string]float64 {
	out := make(map[string]float64, len(spec.LadderMetrics))
	for _, r := range rungs {
		r(perMetric, in, out)
		runtime.GC() // one rung's garbage is not the next one's GC bill
	}
	return out
}
