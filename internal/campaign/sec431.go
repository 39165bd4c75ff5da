package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
)

// Sec431Result reproduces the §4.3.1 narrative figures:
//
//   - the healthy baseline, ~48000 messages received per minute by the test
//     program;
//   - the faulty-STOP-condition run: "the test program received 5038
//     messages in a one minute period, a decrease of almost 90%";
//   - the GAP-corruption run: long-period timeouts every ~50 ms drag the
//     network "to around 12% of the normal throughput".
type Sec431Result struct {
	// BaselinePerMin is the healthy per-minute delivery rate at the test
	// program (the tapped node's receiver).
	BaselinePerMin float64
	// StopRunPerMin is the same rate under continuous faulty STOP
	// conditions.
	StopRunPerMin float64
	// StopReduction is 1 - StopRunPerMin/BaselinePerMin.
	StopReduction float64
	// GapThroughputFrac is the network-wide throughput under continuous
	// GAP corruption, as a fraction of the healthy network-wide rate.
	GapThroughputFrac float64
	// GapLongTimeouts counts long-period (~50 ms) recoveries during the
	// GAP run.
	GapLongTimeouts uint64
}

// sec431Spec corrupts mask into repl on both directions of the tapped link,
// armed over serial. dutyMS > 0 meters the trigger to dutyMS out of every
// 100 ms; zero leaves it armed continuously.
func sec431Spec(name string, seed int64, mask, repl myrinet.Symbol, dutyMS float64) Spec {
	f := FaultSpec{Commands: []string{
		"COMPARE -- -- -- " + byteEntry(mask),
		"CORRUPT REPLACE -- -- -- " + byteEntry(repl),
		"MODE ON",
	}}
	if dutyMS > 0 {
		f.DutyOnMS, f.DutyPeriodMS = dutyMS, 100
	}
	return Spec{Name: name, Seed: seed, TxQueueLimit: 4, Faults: []FaultSpec{f}}
}

// RunSec431 executes baseline, faulty-STOP, and GAP-corruption runs. The
// three runs are independent simulations with their own seeds, so they can
// run on the worker pool.
func RunSec431(opts SectionOptions) Sec431Result {
	d := opts.sec431Duration()
	specs := []Spec{
		// The healthy baseline: no fault at all.
		{Name: "sec431-baseline", Seed: opts.Seed, TxQueueLimit: 4},
		// Faulty STOP conditions — the paper's own wording: "erroneous flow
		// control symbols caused, for example, empty buffers to issue STOP
		// commands". Packet-terminating GAPs on the tapped link become
		// spurious STOPs: framing is destroyed and phantom STOP commands
		// stall the senders. Metered to 82 ms out of every 100 ms; armed
		// continuously nothing at all survives (recovery needs a quiet
		// window longer than the ~50 ms long-period timeout).
		sec431Spec("sec431-stop", opts.Seed+1, myrinet.SymbolGap, myrinet.SymbolStop, 82),
		// GAP corruption: packet-terminating GAPs vanish; paths stay
		// occupied until the long-period timeout reclaims them.
		sec431Spec("sec431-gap", opts.Seed+2, myrinet.SymbolGap, myrinet.SymbolIdle, 0),
	}
	type run struct {
		tap, total float64 // deliveries per minute: tapped node, network
		longTOs    uint64
	}
	minutes := d.Seconds() / 60
	runs := RunTrials(len(specs), opts.Workers, func(i int) run {
		tb, load := mustRunLoad(specs[i].bed(), specs[i], d)
		r := run{
			tap:   float64(load.NodeReceived(tb.cfg.TapNode)) / minutes,
			total: float64(load.Received()) / minutes,
		}
		tb.eachCounters(func(c *myrinet.Counters) { r.longTOs += c.LongTimeouts })
		return r
	})
	base, stop, gap := runs[0], runs[1], runs[2]
	res := Sec431Result{BaselinePerMin: base.tap, StopRunPerMin: stop.tap, GapLongTimeouts: gap.longTOs}
	if base.tap > 0 {
		res.StopReduction = 1 - stop.tap/base.tap
	}
	if base.total > 0 {
		res.GapThroughputFrac = gap.total / base.total
	}
	return res
}

// FormatSec431 renders the result against the paper's numbers.
func FormatSec431(r Sec431Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline:            %8.0f msgs/min   (paper: ~48000)\n", r.BaselinePerMin)
	fmt.Fprintf(&b, "faulty STOP run:     %8.0f msgs/min   (paper: 5038, ~90%% decrease)\n", r.StopRunPerMin)
	fmt.Fprintf(&b, "  reduction:         %7.1f%%\n", 100*r.StopReduction)
	fmt.Fprintf(&b, "GAP corruption run:  %7.1f%% of normal throughput (paper: ~12%%)\n", 100*r.GapThroughputFrac)
	fmt.Fprintf(&b, "  long-period timeouts observed: %d\n", r.GapLongTimeouts)
	return b.String()
}
