package workload

import (
	"fmt"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/meter"
	"netfi/internal/campaign"
	"netfi/internal/core"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

func newStreamBed(in *gen.Inputs) *campaign.Testbed {
	return campaign.NewTestbed(campaign.TestbedConfig{Seed: in.TestbedSeed, Nodes: 3})
}

func compileRules(in *gen.Inputs) *rules.Program {
	prog, err := rules.Compile(in.Rules, rules.Options{})
	if err != nil {
		// gen.RuleSet only emits valid two-step rules.
		panic(fmt.Sprintf("bench: generated rule set rejected: %v", err))
	}
	return prog
}

func streamSetup(in *gen.Inputs) {
	newStreamBed(in)
	compileRules(in)
	compileRules(in)
}

var streamDirs = [2]core.Direction{campaign.DirOutbound, campaign.DirInbound}

// streamRep drives the Fig. 10 bed at full capacity with the injector
// armed. RunFor and the drain are timed: the drain delivers the last
// datagrams that count as operations.
func streamRep(in *gen.Inputs, _ int, m *meter.Meter) Outcome {
	var tb *campaign.Testbed
	var progs [2]*rules.Program
	m.Span("setup", func() {
		m.Span("NewTestbed", func() { tb = newStreamBed(in) })
		m.Span("rules.Compile", func() {
			for i := range progs {
				progs[i] = compileRules(in)
			}
		})
	})

	var load *campaign.Load
	m.Span("arm", func() {
		for i, dir := range streamDirs {
			tb.Injector.Engine(dir).SetRuleProgram(progs[i])
		}
		load = tb.StartLoad(campaign.LoadConfig{Burst: 8, Period: 100 * sim.Microsecond, Size: 1024})
	})
	m.Timed("run", func() { tb.K.RunFor(in.Sizes.StreamRun) })
	m.Timed("drain", func() {
		load.Stop()
		tb.K.RunFor(in.Sizes.StreamDrain)
	})

	var out Outcome
	m.Span("collect", func() {
		out = Outcome{
			Ops:       load.Received(),
			Attempted: load.Received() + load.CorruptAccepted(),
			Failed:    load.CorruptAccepted(),
			Events:    tb.K.Processed(),
		}
		lines := []string{fmt.Sprintf("load sent=%d received=%d corrupt=%d processed=%d",
			load.Sent(), load.Received(), load.CorruptAccepted(), tb.K.Processed())}
		for _, dir := range streamDirs {
			chars, matches, injections := tb.Injector.Engine(dir).Stats()
			out.Symbols += chars
			lines = append(lines, fmt.Sprintf("injector %v chars=%d matches=%d injections=%d", dir, chars, matches, injections))
			if injections != 0 {
				out.Failed = out.Attempted
				out.Problems = append(out.Problems, fmt.Sprintf("injector %v fired %d times; the rule set must stay silent", dir, injections))
			}
		}
		if n := load.CorruptAccepted(); n > 0 {
			out.Problems = append(out.Problems, fmt.Sprintf("%d datagrams accepted corrupt", n))
		}
		if out.Ops == 0 {
			out.Problems = append(out.Problems, "no datagram was received")
		}
		out.Fingerprint = digest(lines...)
	})
	return out
}
