package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Table4Row is one line of the paper's Table 4: corrupt every occurrence of
// Mask into Replacement on the tapped link (both directions) under full
// load, and count application-level message loss.
type Table4Row struct {
	Mask        myrinet.Symbol
	Replacement myrinet.Symbol
	Sent        uint64
	Received    uint64
	LossRate    float64
	Outcome     Outcome
}

// Table4Options parameterizes the campaign.
type Table4Options struct {
	// Seed drives the run; each row perturbs it so rows are independent
	// experiments from a known good state (§4.2).
	Seed int64
	// Duration is the measured load window per row. Zero selects 1.7 s
	// (about 4000 messages at the paper's offered load).
	Duration sim.Duration
	// Workers runs the nine rows concurrently; <= 1 is serial. Each row is
	// an independent simulation from its own seed, so results are
	// identical either way.
	Workers int
}

func (o *Table4Options) fillDefaults() {
	if o.Duration == 0 {
		o.Duration = 1700 * sim.Millisecond
	}
}

// table4DutyOn/table4DutyPeriod meter the injection: the trigger is armed
// table4DutyOn out of every table4DutyPeriod — NFTAPE toggling the board's
// match mode once per burst period.
const (
	table4DutyOn     = sim.Millisecond
	table4DutyPeriod = 100 * sim.Millisecond
)

// rowDuty returns the injection duty for one row. Corruptions that
// manufacture spurious GAPs (mask GAP, or STOP replaced by GAP) destroy
// packet framing and hold switch paths until the long-period timeout, so a
// single armed window degrades tens of milliseconds of traffic; those rows
// are metered. Overflow- and stall-driven rows (the rest) need the trigger
// armed continuously to catch the bursty flow-control symbols at all.
func rowDuty(mask, repl myrinet.Symbol) (on, period sim.Duration) {
	switch {
	case mask == myrinet.SymbolGap:
		return table4DutyOn, table4DutyPeriod
	case mask == myrinet.SymbolStop && repl == myrinet.SymbolGap:
		return 75 * table4DutyOn, table4DutyPeriod
	default:
		return table4DutyPeriod, table4DutyPeriod // always on
	}
}

// byteEntry renders a symbol's code as a byte-value window entry: the
// compare operates on the 8-bit data path regardless of the D/C flag (the
// 32-bit segment view of §3.3), which is why the paper's workloads had to
// keep the mask byte out of the message body — checksum and CRC bytes
// remain at risk, a real collateral-loss channel.
func byteEntry(s myrinet.Symbol) string {
	return fmt.Sprintf("X%02X", s.Code())
}

// Table4Pairs lists the nine mask→replacement pairs of the paper's Table 4,
// in table order.
func Table4Pairs() [][2]myrinet.Symbol {
	return [][2]myrinet.Symbol{
		{myrinet.SymbolStop, myrinet.SymbolIdle},
		{myrinet.SymbolStop, myrinet.SymbolGap},
		{myrinet.SymbolStop, myrinet.SymbolGo},
		{myrinet.SymbolGap, myrinet.SymbolGo},
		{myrinet.SymbolGap, myrinet.SymbolIdle},
		{myrinet.SymbolGap, myrinet.SymbolStop},
		{myrinet.SymbolGo, myrinet.SymbolIdle},
		{myrinet.SymbolGo, myrinet.SymbolGap},
		{myrinet.SymbolGo, myrinet.SymbolStop},
	}
}

// RunTable4Row executes one corruption experiment from a fresh test bed.
func RunTable4Row(mask, replacement myrinet.Symbol, opts Table4Options) Table4Row {
	opts.fillDefaults()
	tb := NewTestbed(TestbedConfig{Seed: opts.Seed, TxQueueLimit: 4})
	// Program both directions over the serial console, then meter the
	// match mode with the duty cycle.
	for _, dir := range []string{"L", "R"} {
		tb.Configure(
			"DIR "+dir,
			"MODE OFF",
			"COMPARE -- -- -- "+byteEntry(mask),
			"CORRUPT REPLACE -- -- -- "+byteEntry(replacement),
		)
	}
	on, period := rowDuty(mask, replacement)
	repeats := int(opts.Duration/period) + 1
	tb.DutyCycle(on, period, repeats)

	load := tb.StartLoad(LoadConfig{})
	tb.K.RunFor(opts.Duration)
	load.Stop()
	// Disarm and let in-flight traffic drain before counting.
	tb.ConfigureBothMode(false)
	tb.K.RunFor(100 * sim.Millisecond)

	return Table4Row{
		Mask:        mask,
		Replacement: replacement,
		Sent:        load.Sent(),
		Received:    load.Received(),
		LossRate:    load.LossRate(),
		Outcome:     load.Classify(),
	}
}

// RunTable4 executes all nine rows over the worker pool.
func RunTable4(opts Table4Options) []Table4Row {
	pairs := Table4Pairs()
	return RunTrials(len(pairs), opts.Workers, func(i int) Table4Row {
		rowOpts := opts
		rowOpts.Seed = opts.Seed + int64(i)
		return RunTable4Row(pairs[i][0], pairs[i][1], rowOpts)
	})
}

// FormatTable4 renders rows like the paper's Table 4, with the published
// figures alongside.
func FormatTable4(rows []Table4Row) string {
	paper := map[string][3]uint64{ // sent, received, loss%
		"STOP->IDLE": {4064, 3705, 8},
		"STOP->GAP":  {4092, 3445, 15},
		"STOP->GO":   {4015, 3694, 7},
		"GAP->GO":    {3132, 2785, 11},
		"GAP->IDLE":  {3378, 3022, 11},
		"GAP->STOP":  {3983, 3607, 9},
		"GO->IDLE":   {2564, 2199, 14},
		"GO->GAP":    {3483, 3108, 10},
		"GO->STOP":   {3720, 3322, 10},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-11s %8s %8s %6s   %8s %8s %6s\n",
		"Mask", "Replacement", "sent", "recv", "loss", "p.sent", "p.recv", "p.loss")
	for _, r := range rows {
		key := fmt.Sprintf("%v->%v", r.Mask, r.Replacement)
		p := paper[key]
		fmt.Fprintf(&b, "%-6v %-11v %8d %8d %5.1f%%   %8d %8d %5d%%\n",
			r.Mask, r.Replacement, r.Sent, r.Received, 100*r.LossRate, p[0], p[1], p[2])
	}
	return b.String()
}
