package myrinet

import (
	"testing"
	"testing/quick"

	"netfi/internal/sim"
)

// Network-level conservation: for any batch of random-size payloads sprayed
// between three hosts through the switch, every message arrives exactly
// once, intact, at the right node — the uncorrupted network neither loses
// nor duplicates nor misdelivers.
func TestNetworkConservationProperty(t *testing.T) {
	type spray struct {
		Sizes []uint16
	}
	prop := func(s spray) bool {
		if len(s.Sizes) > 40 {
			s.Sizes = s.Sizes[:40]
		}
		k := sim.NewKernel(3)
		_, hosts, _ := threeNodeNet(t, k, false)
		sent := make([]int, 3)
		for i, raw := range s.Sizes {
			size := int(raw%1200) + 1
			from := i % 3
			to := (i + 1 + i%2) % 3
			if to == from {
				to = (to + 1) % 3
			}
			payload := make([]byte, size)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := hosts[from].ifc.Send(hosts[to].ifc.MAC(), payload); err != nil {
				return false
			}
			sent[to]++
		}
		k.Run()
		for i, h := range hosts {
			if len(h.received) != sent[i] {
				return false
			}
			if h.ifc.Counters().TotalDrops() != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Payload transparency: arbitrary byte contents — including bytes equal to
// control-symbol codes — survive the trip bit-exactly, because the D/C flag
// keeps data and control apart on the wire.
func TestNetworkPayloadTransparencyProperty(t *testing.T) {
	prop := func(payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0x0C} // a GAP-valued data byte
		}
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		k := sim.NewKernel(5)
		_, hosts, _ := threeNodeNet(t, k, false)
		if err := hosts[0].ifc.Send(hosts[1].ifc.MAC(), payload); err != nil {
			return false
		}
		k.Run()
		if len(hosts[1].received) != 1 {
			return false
		}
		got := hosts[1].received[0]
		if len(got) != len(payload) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Two-switch conservation: the same holds across a multi-hop path with
// per-hop route stripping and CRC adjustment.
func TestTwoSwitchConservationProperty(t *testing.T) {
	prop := func(sizes []uint8) bool {
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		k := sim.NewKernel(7)
		sw0 := NewSwitch(k, "sw0", 4)
		sw1 := NewSwitch(k, "sw1", 4)
		a := newTestHost(k, "A", 1, 1, MappingConfig{})
		b := newTestHost(k, "B", 2, 2, MappingConfig{})
		connectHost(k, a.ifc, sw0, 0)
		connectHost(k, b.ifc, sw1, 1)
		connectSwitches(k, sw0, 3, sw1, 2)
		a.ifc.SetRoute(b.ifc.MAC(), RouteTo(3, 1))
		for i, sz := range sizes {
			payload := make([]byte, int(sz)+1)
			payload[0] = byte(i)
			if err := a.ifc.Send(b.ifc.MAC(), payload); err != nil {
				return false
			}
		}
		k.Run()
		if len(b.received) != len(sizes) {
			return false
		}
		for i, msg := range b.received {
			if msg[0] != byte(i) {
				return false
			}
		}
		return b.ifc.Counters().Drops[DropCRC] == 0
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
