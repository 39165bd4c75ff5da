package topo

import (
	"testing"

	"netfi/internal/sim"
)

// FuzzTopoBuild: a bounded Config (switches, hosts and shards in [0, 48];
// propagation delays and MaxPacket of any sign, zero included) either fails
// Build with an error or builds a fabric with exactly the configured switch
// and host counts. Build never panics, and every fabric it builds is closed.
func FuzzTopoBuild(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(1), int64(1), int64(0), int64(0), 0)
	f.Add(uint8(16), uint8(48), uint8(3), int64(7), int64(30_000), int64(80_000), 4096)
	f.Add(uint8(0), uint8(4), uint8(0), int64(0), int64(0), int64(0), 0)
	f.Add(uint8(3), uint8(0), uint8(48), int64(0), int64(-1), int64(-1), -1)
	f.Add(uint8(9), uint8(17), uint8(26), int64(-5), int64(1), int64(-100_000), 1)
	f.Fuzz(func(t *testing.T, switches, hosts, shards uint8, seed, hostDelay, trunkDelay int64, maxPacket int) {
		cfg := Config{
			Switches:       int(switches % 49),
			Hosts:          int(hosts % 49),
			Shards:         int(shards % 49),
			Seed:           seed,
			HostPropDelay:  sim.Duration(hostDelay),
			TrunkPropDelay: sim.Duration(trunkDelay),
			MaxPacket:      maxPacket,
		}
		fab, err := Build(cfg)
		if err != nil {
			return
		}
		defer fab.Close()
		if len(fab.Switches) != cfg.Switches || len(fab.Hosts) != cfg.Hosts {
			t.Fatalf("Build(%+v): %d switches and %d hosts", cfg, len(fab.Switches), len(fab.Hosts))
		}
	})
}
