// UDP checksum evasion, §4.3.4: the one's-complement checksum cannot see a
// swap of bytes 16 bits apart. The injector rewrites "Have" into "veHa" in
// flight (recomputing the Myrinet CRC-8 with its real-time trigger); the
// checksum still verifies, so the corrupted message is passed to the
// application — the campaign's one ACTIVE fault.
package main

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/campaign"
)

func main() {
	orig := []byte("Have a lot of fun")
	swapped := []byte("veHa a lot of fun")
	fmt.Printf("checksum(%q) = %#04x\n", orig, bitstream.Checksum16(orig))
	fmt.Printf("checksum(%q) = %#04x (identical: the swap is invisible)\n\n",
		swapped, bitstream.Checksum16(swapped))

	res := campaign.RunSec434(campaign.SectionOptions{Seed: 41})
	fmt.Printf("aligned swap delivered to the application: %v\n", res.EvadingDelivered)
	fmt.Printf("application received: %q\n", res.EvadingPayload)
	fmt.Printf("non-aligned corruption dropped by the checksum: %v\n", res.NonEvadingDropped)
}
