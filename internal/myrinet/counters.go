package myrinet

import (
	"fmt"
	"strings"
)

// DropReason classifies why a packet (or character train) was discarded.
// The campaign's outcome analysis (§4.4) depends on these distinctions: all
// observed faults were "passive" — data dropped, never incorrectly passed on
// — and the reason codes show which mechanism did the dropping.
type DropReason int

// Drop reasons. Start at 1 so the zero value is invalid.
const (
	// DropCRC: trailing CRC-8 mismatch at a destination interface.
	DropCRC DropReason = iota + 1
	// DropMisaddressed: destination MAC does not match the interface.
	DropMisaddressed
	// DropRouteMSB: leading route byte reached an interface with the MSB
	// set; the spec requires the packet be "consumed and handled as an
	// error".
	DropRouteMSB
	// DropBadPort: a switch route byte selected a port with no device or
	// an out-of-range port.
	DropBadPort
	// DropSwitchMSB: a switch saw a leading route byte with the MSB
	// clear (the packet expected to be at its destination already).
	DropSwitchMSB
	// DropUnknownType: packet type not recognized by the interface.
	DropUnknownType
	// DropOverflow: slack-buffer overflow destroyed characters.
	DropOverflow
	// DropTruncated: packet malformed or shorter than the minimum frame.
	DropTruncated
	// DropTerminated: the sending host's long-period timeout terminated
	// the packet and consumed its unsent remainder.
	DropTerminated
	// DropChecksum: UDP one's-complement checksum failure in the host
	// stack.
	DropChecksum
	// DropOversize: a packet exceeded the interface's maximum frame
	// size before its terminating GAP arrived — the signature of a lost
	// GAP merging consecutive packets into one unbounded stream.
	DropOversize
	// DropNoRoute: the sending host had no routing-table entry for the
	// destination (the node was dropped from the network map).
	DropNoRoute
	// DropTxQueue: the interface's bounded transmit queue was full — the
	// sender was stalled (STOP, blocked path) long enough for the host
	// to outrun its NIC.
	DropTxQueue
	// DropReset: in-flight receive state was discarded by a link reset
	// (slack flush plus reassembly/forwarding abort).
	DropReset
	// DropBlocked: a switch port's blocked-packet watchdog dropped a
	// cut-through packet that made no forwarding progress for the
	// blocked-packet deadline (head-of-line deadlock breaking).
	DropBlocked

	// dropReasons sizes Counters.Drops: one past the last reason.
	dropReasons
)

var dropNames = map[DropReason]string{
	DropCRC:          "crc",
	DropMisaddressed: "misaddressed",
	DropRouteMSB:     "route-msb",
	DropBadPort:      "bad-port",
	DropSwitchMSB:    "switch-msb",
	DropUnknownType:  "unknown-type",
	DropOverflow:     "overflow",
	DropTruncated:    "truncated",
	DropTerminated:   "terminated",
	DropChecksum:     "checksum",
	DropOversize:     "oversize",
	DropNoRoute:      "no-route",
	DropTxQueue:      "tx-queue",
	DropReset:        "reset",
	DropBlocked:      "blocked",
}

// String returns the reason mnemonic.
func (r DropReason) String() string {
	if s, ok := dropNames[r]; ok {
		return s
	}
	return fmt.Sprintf("drop(%d)", int(r))
}

// Counters accumulates per-entity statistics. The fault injector's own
// statistics-gathering feature (§3.2) and the mmon monitor both read these.
// The struct holds no references, so a plain copy is a deep copy.
type Counters struct {
	PacketsSent      uint64
	PacketsReceived  uint64
	PacketsForwarded uint64
	CharsIn          uint64
	CharsOut         uint64
	// Drops counts dropped packets per reason, indexed by DropReason;
	// index 0 (no reason) stays zero. Renderers list non-zero reasons only.
	Drops         [dropReasons]uint64
	StopsSent     uint64
	GosSent       uint64
	StopsReceived uint64
	GosReceived   uint64
	ShortTimeouts uint64
	LongTimeouts  uint64
	OverflowChars uint64

	// Recovery layer (zero unless RecoveryConfig.Enabled).
	LinkResets        uint64 // forward resets this controller initiated
	ResetsReceived    uint64 // RESET symbols received from the remote
	StopWatchdogFires uint64 // continuous-STOP deadline expiries
	BlockedTimeouts   uint64 // switch blocked-packet watchdog expiries
	FlushedChars      uint64 // slack characters discarded by resets
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters { return new(Counters) }

// Drop records one dropped packet for the given reason.
func (c *Counters) Drop(r DropReason) { c.Drops[r]++ }

// TotalDrops sums packet drops across all reasons.
func (c *Counters) TotalDrops() uint64 {
	var n uint64
	for _, v := range c.Drops {
		n += v
	}
	return n
}

// String renders the counters compactly for traces and the mmon tool.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d recv=%d fwd=%d", c.PacketsSent, c.PacketsReceived, c.PacketsForwarded)
	if c.StopsSent+c.GosSent > 0 {
		fmt.Fprintf(&b, " stop/go-tx=%d/%d", c.StopsSent, c.GosSent)
	}
	if c.StopsReceived+c.GosReceived > 0 {
		fmt.Fprintf(&b, " stop/go-rx=%d/%d", c.StopsReceived, c.GosReceived)
	}
	if c.ShortTimeouts > 0 {
		fmt.Fprintf(&b, " short-to=%d", c.ShortTimeouts)
	}
	if c.LongTimeouts > 0 {
		fmt.Fprintf(&b, " long-to=%d", c.LongTimeouts)
	}
	if c.LinkResets+c.ResetsReceived > 0 {
		fmt.Fprintf(&b, " resets-tx/rx=%d/%d", c.LinkResets, c.ResetsReceived)
	}
	if c.StopWatchdogFires > 0 {
		fmt.Fprintf(&b, " stop-wd=%d", c.StopWatchdogFires)
	}
	if c.BlockedTimeouts > 0 {
		fmt.Fprintf(&b, " blocked-wd=%d", c.BlockedTimeouts)
	}
	if c.TotalDrops() > 0 {
		b.WriteString(" drops[")
		sep := ""
		for r, n := range c.Drops {
			if n > 0 {
				fmt.Fprintf(&b, "%s%v=%d", sep, DropReason(r), n)
				sep = " "
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
