// Sharded multi-switch fabrics: one simulation split across parallel
// per-core event kernels with conservative lookahead.
//
// The walkthrough builds a 16-switch/64-host Clos (2 spines, 14 leaves)
// from the seed alone, floods every host's packets across it at three
// shard counts, and prints the per-shard event balance and throughput for
// each. The punchline is determinism: the final fabric state is
// byte-identical whether one kernel executes everything or sixteen kernels
// race under the lookahead barrier — only the wall clock and the window
// count change. Shards never see each other's clocks; each window the
// coordinator runs every shard one lookahead — the fabric's shortest
// buffered cable — past the earliest pending event, so no shard can
// receive a buffered delivery in its past. A single-shard run buffers no
// cable at all and runs to quiescence in one window.
package main

import (
	"fmt"
	"runtime"

	"netfi/internal/campaign"
	"netfi/internal/topo"
)

func main() {
	fmt.Printf("16-switch/64-host Clos flood on %d CPU(s), GOMAXPROCS=%d\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var baseline float64
	for _, shards := range []int{1, 4, 16} {
		res, err := campaign.RunFabric(campaign.FabricConfig{
			Topo: topo.Config{Switches: 16, Hosts: 64, Shards: shards, Seed: 7},
		})
		if err != nil {
			fmt.Println("fabric:", err)
			return
		}
		rate := float64(res.Symbols) / res.Wall.Seconds() / 1e6
		if shards == 1 {
			baseline = rate
		}
		fmt.Printf("shards=%-2d  drained=%v  sent=%d delivered=%d  windows=%d  cross-shard=%d\n",
			shards, res.Drained, res.Sent, res.Delivered, res.Windows, res.Exchanged)
		fmt.Printf("           %.2fM symbols/s (%.2fx vs 1 shard), wall %v\n",
			rate, rate/baseline, res.Wall.Round(res.Wall/100))
		fmt.Print("           shard events:")
		for _, n := range res.ShardEvents {
			fmt.Printf(" %d", n)
		}
		fmt.Println()
	}

	fmt.Println("\nequal state, different schedules: TestFabricShardEquivalence pins the")
	fmt.Println("fingerprints byte-identical; on one CPU the extra shards only add")
	fmt.Println("barrier overhead, on a multicore box they buy wall-clock speedup.")
	fmt.Println("\nbigger: go run ./cmd/netfi fabric -switches 128 -hosts 1024 -shards 4")
}
