package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Sec434Result reproduces the §4.3.4 UDP corruption experiment: a swap of
// bytes 16 bits apart satisfies the one's-complement checksum, so the
// corrupted message is passed to the application ("Have a lot of fun" →
// "veHa a lot of fun") — an ACTIVE fault; any other corruption fails the
// checksum and the packet is dropped.
type Sec434Result struct {
	// EvadingDelivered: the swapped message reached the application.
	EvadingDelivered bool
	// EvadingPayload is what the application received.
	EvadingPayload string
	// NonEvadingDropped: the non-aligned corruption was caught by the
	// UDP checksum.
	NonEvadingDropped bool
}

const sec434Message = "Have a lot of fun"

// sec434Evading runs the checksum-evading swap. "Have" (48 61 76 65)
// becomes "veHa" (76 65 48 61): bytes 0<->2 and 1<->3 swap — 16 bits apart,
// invisible to the one's-complement sum. The Myrinet CRC-8 is recomputed by
// the injector (the real-time trigger), so only the end-to-end checksum
// stands between the corruption and the application — and it passes.
func sec434Evading(seed int64) (delivered bool, payload string) {
	tb := NewTestbed(TestbedConfig{Seed: seed})
	tap := tb.TapNode()
	src := tb.Nodes[1]
	var got []byte
	mustBind(tap, loadDstPort, func(_ myrinet.MAC, _ uint16, data []byte) {
		got = append([]byte(nil), data...)
	})
	tb.mustConfigure(
		"DIR R",
		"COMPARE 48 61 76 65",         // "Have"
		"CORRUPT REPLACE 76 65 48 61", // "veHa"
		"CRC ON",
		"MODE ONCE",
	)
	src.SendUDP(tap.MAC(), 9000, loadDstPort, []byte(sec434Message))
	tb.K.RunFor(5 * sim.Millisecond)
	return string(got) == "veHa a lot of fun", string(got)
}

// sec434NonEvading runs the control: a corruption that does not satisfy the
// checksum ('H' → 'X') is detected and the packet dropped.
func sec434NonEvading(seed int64) bool {
	tb := NewTestbed(TestbedConfig{Seed: seed})
	tap := tb.TapNode()
	src := tb.Nodes[1]
	delivered := false
	mustBind(tap, loadDstPort, func(myrinet.MAC, uint16, []byte) {
		delivered = true
	})
	tb.mustConfigure(
		"DIR R",
		"COMPARE 48 61 76 65",
		"CORRUPT REPLACE 58 -- -- --", // 'X'
		"CRC ON",
		"MODE ONCE",
	)
	src.SendUDP(tap.MAC(), 9000, loadDstPort, []byte(sec434Message))
	tb.K.RunFor(5 * sim.Millisecond)
	return !delivered && tap.Stats().ChecksumDrops == 1
}

// RunSec434 executes both halves of the experiment on separate testbeds.
func RunSec434(opts SectionOptions) Sec434Result {
	parts := RunTrials(2, opts.Workers, func(i int) Sec434Result {
		var r Sec434Result
		if i == 0 {
			r.EvadingDelivered, r.EvadingPayload = sec434Evading(opts.Seed)
		} else {
			r.NonEvadingDropped = sec434NonEvading(opts.Seed + 1)
		}
		return r
	})
	res := parts[0]
	res.NonEvadingDropped = parts[1].NonEvadingDropped
	return res
}

// FormatSec434 renders the result against the paper's observations.
func FormatSec434(r Sec434Result) string {
	check := func(b bool) string {
		if b {
			return "reproduced"
		}
		return "NOT reproduced"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "16-bit-aligned swap evades the checksum: %s\n", check(r.EvadingDelivered))
	fmt.Fprintf(&b, "  application received: %q (paper: \"veHa a lot of fun\")\n", r.EvadingPayload)
	fmt.Fprintf(&b, "non-aligned corruption dropped by checksum: %s\n", check(r.NonEvadingDropped))
	return b.String()
}
