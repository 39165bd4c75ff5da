// Control-symbol corruption, the signature capability of the paper: the
// injector sits in the data path, so it can match and corrupt the
// hardware-generated GAP/GO/STOP symbols that no software fault injector
// can reach. This example runs one Table 4 row — every GAP on the tapped
// link replaced by GO, metered by the campaign duty cycle — and prints the
// resulting loss next to the paper's figure.
package main

import (
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/myrinet"
)

func main() {
	row := campaign.RunTable4Row(myrinet.SymbolGap, myrinet.SymbolGo,
		campaign.SectionOptions{Seed: 7})
	fmt.Printf("mask=%v replacement=%v\n", row.Mask, row.Replacement)
	fmt.Printf("messages sent:     %d\n", row.Sent)
	fmt.Printf("messages received: %d\n", row.Received)
	fmt.Printf("loss rate:         %.1f%%  (paper: 11%% for GAP->GO)\n", 100*row.LossRate)
	fmt.Printf("classification:    %s (the paper's campaign saw only passive faults)\n",
		row.Classification)

	fmt.Println("\nfull campaign: go run ./cmd/netfi table4")
}
