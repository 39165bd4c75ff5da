package gen

import (
	"fmt"
	"testing"

	"netfi/internal/campaign"
)

func TestSeedsSpreadOverThePool(t *testing.T) {
	if New(42, Quick()).ResilienceSeed == New(7, Quick()).ResilienceSeed {
		t.Error("the working seed 42 and the held-out seed 7 draw the same campaign seed")
	}
	hit := map[int64]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		hit[New(seed, Quick()).ResilienceSeed] = true
	}
	if len(hit) != len(resiliencePool) {
		t.Errorf("200 seeds reached %d of %d pool entries", len(hit), len(resiliencePool))
	}
}

// Every pool entry is of one cost class at the measured size: exactly the
// two gap-drop-tail trials wedge the network. Under -short only the entries
// seeds 42 and 7 draw are run.
func TestResiliencePoolCostClass(t *testing.T) {
	entries := resiliencePool[:]
	if testing.Short() {
		entries = []int64{New(42, Full()).ResilienceSeed, New(7, Full()).ResilienceSeed}
	}
	for _, seed := range entries {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			// One worker per pass: two contend for the burst pool and take longer.
			res := campaign.RunResilience(campaign.ResilienceOptions{Seed: seed, Trials: Full().Trials, Workers: 1})
			on, off := campaign.CountOutcomes(res.Trials), campaign.CountOutcomes(res.Baseline)
			if on[campaign.OutcomeHung] != 0 || on[campaign.OutcomeResetRecovered] != 2 || off[campaign.OutcomeHung] != 2 {
				t.Errorf("recovery on %v, off %v; the pool wants 2 reset-recovered and 2 hung", on, off)
			}
		})
	}
}
