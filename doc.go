// Package netfi is a full reproduction, in simulation, of "An Adaptive
// Architecture for Monitoring and Failure Analysis of High-Speed Networks"
// (Floering, Brothers, Kalbarczyk, Iyer — DSN 2002): an in-path,
// reconfigurable fault injector for gigabit networks, together with every
// substrate the paper's evaluation depends on.
//
// The packages:
//
//	internal/sim           deterministic discrete-event kernel (ps clock)
//	internal/phy           physical links: characters, serialization, delay
//	internal/bitstream     CRC-8, CRC-32, one's-complement checksum
//	internal/myrinet       Myrinet: symbols, slack buffers, switches, MCP mapping
//	internal/enc8b10b      IBM 8b/10b transmission code
//	internal/fibrechannel  FC-PH frames, ordered sets, BB credit
//	internal/core          THE PAPER'S CONTRIBUTION: the FIFO injector device
//	internal/serial        UART / SPI / console control path
//	internal/host          UDP-era host stack with interrupt-granularity timing
//	internal/synth         FPGA resource estimator (Table 1)
//	internal/campaign      NFTAPE-style campaign framework + all experiments
//	internal/netmap        network-map rendering (Fig. 11)
//
// Regenerate the paper's tables and figures with:
//
//	go run ./cmd/netfi all
//
// EXPERIMENTS.md records the paper-vs-measured comparison; bench/ (its own
// module, `bash bench/run.sh run`) measures what the simulator itself costs.
package netfi
