package myrinet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netfi/internal/sim"
)

// runForwardTrace runs a seeded three-host traffic mix through one switch and
// returns the full observable trace: every delivery with its timestamp,
// source and payload, every send error, and the final counters of every
// switch port. The batch flag selects run-granular vs per-character
// forwarding; equal traces for equal seeds is the batch path's correctness
// contract.
func runForwardTrace(t *testing.T, seed int64, batch, mapping, recovery bool) string {
	t.Helper()
	old := batchForward
	batchForward = batch
	defer func() { batchForward = old }()

	k := sim.NewKernel(1)
	sw := NewSwitch(k, "sw0", DefaultPortCount)
	if recovery {
		sw.SetRecovery(RecoveryConfig{Enabled: true})
	}
	var trace strings.Builder
	hosts := make([]*Interface, 3)
	for i := range hosts {
		cfg := MappingConfig{}
		if mapping {
			cfg = MappingConfig{
				Enabled:       true,
				InitialMapper: i == 2,
				MapPeriod:     100 * sim.Millisecond,
			}
		}
		idx := i
		hosts[i] = NewInterface(k, InterfaceConfig{
			Name:    string(rune('A' + i)),
			MAC:     MAC{0x02, 0, 0, 0, 0, byte(i + 1)},
			ID:      NodeID(i + 1),
			Mapping: cfg,
		})
		hosts[i].SetDataHandler(func(src MAC, payload []byte) {
			fmt.Fprintf(&trace, "t=%v host=%d src=%x payload=%x\n", k.Now(), idx, src, payload)
		})
		connectHost(k, hosts[i], sw, i)
	}
	if !mapping {
		staticRoutes(hosts)
	}

	// Random mix: colliding destinations provoke destination blocking, and
	// payloads longer than the high watermark push the blocked port's slack
	// buffer through its STOP/GO cycle — the watermark-crossing case the
	// batch path must split around.
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < 40; s++ {
		src := rng.Intn(3)
		dst := rng.Intn(3)
		if dst == src {
			dst = (dst + 1) % 3
		}
		payload := make([]byte, rng.Intn(480))
		rng.Read(payload)
		from, to := hosts[src], hosts[dst]
		k.After(sim.Duration(rng.Intn(30_000))*sim.Nanosecond, func() {
			if err := from.Send(to.MAC(), payload); err != nil {
				fmt.Fprintf(&trace, "t=%v send err: %v\n", k.Now(), err)
			}
		})
	}
	if mapping || recovery {
		k.RunFor(400 * sim.Millisecond)
	} else {
		k.Run()
	}
	for p := 0; p < sw.Ports(); p++ {
		fmt.Fprintf(&trace, "port%d=%+v\n", p, *sw.PortCounters(p))
	}
	fmt.Fprintf(&trace, "held=%d\n", sw.HeldOutputs())
	return trace.String()
}

// TestBatchForwardEquivalence pins run-granular forwarding against
// per-character stepping over seeded traffic mixes: plain static-route
// traffic, traffic with the recovery layer armed (the blocked-packet
// watchdog's event-ID sequence must also match), and mapping-protocol
// traffic (scout packets exercise the isMapping port-byte append).
func TestBatchForwardEquivalence(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, sc := range []struct {
			name              string
			mapping, recovery bool
		}{
			{"plain", false, false},
			{"recovery", false, true},
			{"mapping", true, false},
		} {
			ref := runForwardTrace(t, seed, false, sc.mapping, sc.recovery)
			got := runForwardTrace(t, seed, true, sc.mapping, sc.recovery)
			if got != ref {
				rl, gl := strings.Split(ref, "\n"), strings.Split(got, "\n")
				for i := 0; i < len(rl) || i < len(gl); i++ {
					var a, b string
					if i < len(rl) {
						a = rl[i]
					}
					if i < len(gl) {
						b = gl[i]
					}
					if a != b {
						t.Fatalf("seed %d %s: trace diverges at line %d:\n  per-char: %s\n  batch:    %s",
							seed, sc.name, i, a, b)
					}
				}
			}
		}
	}
}
