package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"netfi/internal/campaign"
	"netfi/internal/sim"
)

// shell is an interactive serial shell to the injector of a live Fig. 10
// test bed, the way a user at the RS-232 console drives the real board
// (§3.3): each line read from in is carried over the simulated UART, at real
// serial-line cost in virtual time, and the board's responses are printed.
// A command runs 5 ms of traffic, then on until the serial exchange drains,
// however long its line or its answer. Lines starting with '!' are shell controls:
//
//	!run <ms>    advance the simulation (default 100 ms of traffic)
//	!stats       print network counters
//	!quit
func shell(o expOpts, in io.Reader, out io.Writer) int {
	tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: o.Seed})
	load := tb.StartLoad(campaign.LoadConfig{})
	defer load.Stop()
	printed := 0
	printResponses := func() {
		for _, r := range tb.Console.Responses()[printed:] {
			fmt.Fprintln(out, r)
		}
		printed = len(tb.Console.Responses())
	}

	fmt.Fprintln(out, "netfi injector shell — type HELP-worthy commands (MODE/COMPARE/CORRUPT/CRC/INJECT/STAT/CAP/RESET/DIR), '!run N', '!stats', '!quit'")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "inj> ")
		if !sc.Scan() {
			return 0
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "!quit" || line == "!q":
			return 0
		case line == "!stats":
			for i, n := range tb.Nodes {
				fmt.Fprintf(out, "node%d: %v\n", i, n.Interface().Counters())
			}
			fmt.Fprintf(out, "load: sent=%d recv=%d corrupt-accepted=%d\n",
				load.Sent(), load.Received(), load.CorruptAccepted())
		case strings.HasPrefix(line, "!run"):
			ms := 100.0
			if f := strings.Fields(line); len(f) > 1 {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil || !(v >= 0) || math.IsInf(v, 0) {
					fmt.Fprintf(out, "!run: %q is not a non-negative number of milliseconds\n", f[1])
					continue
				}
				ms = v
			}
			tb.K.RunFor(sim.Duration(ms * float64(sim.Millisecond)))
			printResponses()
			fmt.Fprintf(out, "t=%v\n", tb.K.Now())
		default:
			tb.Console.Send(line)
			tb.K.RunFor(5 * sim.Millisecond)
			for tb.K.Now() < tb.Console.DrainedAt() {
				tb.K.RunUntil(tb.Console.DrainedAt())
			}
			printResponses()
		}
	}
}
