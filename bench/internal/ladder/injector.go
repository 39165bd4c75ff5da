package ladder

import (
	"fmt"
	"time"

	"netfi/bench/internal/gen"
	"netfi/internal/core"
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/serial"
	"netfi/internal/sim"
)

// pairRules builds n two-step toggle rules over the disjoint byte pairs
// (0x20,0x21), (0x22,0x23), ... — the rule shape of BenchmarkFIFOInjectorArmed.
// Only the first pair is ever embedded in a ladder burst.
func pairRules(n int) []rules.Rule {
	rs := make([]rules.Rule, n)
	for i := range rs {
		b0 := uint16(0x20 + 2*i)
		rs[i] = rules.Rule{
			ID: i + 1, Mode: rules.ModeOn, Action: rules.ActionToggle,
			Steps: []rules.Step{
				{Sym: 0x100 | b0, Mask: rules.SymbolMask},
				{Sym: 0x100 | (b0 + 1), Mask: rules.SymbolMask},
			},
			CorruptData: []uint16{0, 0x01},
		}
	}
	return rs
}

func mustCompile(rs []rules.Rule) *rules.Program {
	prog, err := rules.Compile(rs, rules.Options{})
	if err != nil {
		panic(fmt.Sprintf("ladder: fixed rule set rejected: %v", err))
	}
	return prog
}

// hitBurst is the data burst with the first rule's pair embedded every
// `every` symbols.
func hitBurst(every int) []phy.Character {
	b := dataBurst()
	for at := every / 2; at+1 < len(b); at += every {
		b[at], b[at+1] = phy.DataChar(0x20), phy.DataChar(0x21)
	}
	return b
}

// armedEngine is an engine with n pair rules installed.
func armedEngine(n int) *core.Engine {
	e := core.NewEngine(core.DefaultSlackChars)
	if n > 0 {
		e.SetRuleProgram(mustCompile(pairRules(n)))
	}
	return e
}

func coreRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	batch := func(e *core.Engine, burst []phy.Character) float64 {
		return perOp(budget, func(n int) {
			for i := 0; i < n; i++ {
				e.ProcessBatch(burst)
			}
		}) / burstLen
	}
	out["core.passthrough_ns_per_symbol"] = batch(armedEngine(0), dataBurst())
	out["core.armed8_ns_per_symbol"] = batch(armedEngine(8), hitBurst(burstLen))
	out["core.armed64_ns_per_symbol"] = batch(armedEngine(64), hitBurst(burstLen))
	out["core.armed64_hitdense_ns_per_symbol"] = batch(armedEngine(64), hitBurst(32))

	e := armedEngine(0)
	burst := dataBurst()
	out["core.per_symbol_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			e.Process(burst)
		}
	}) / burstLen

	// The device spliced into a cable: link delivery, engine, latency
	// pipeline and downstream scheduling, all kernel-driven.
	k := sim.NewKernel(1)
	cable := phy.NewCable(k, linkTiming, releasingSink{}, releasingSink{})
	core.NewDevice(k, core.DeviceConfig{Name: "ladder.dev"}).Insert(cable)
	out["core.device_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			cable.LeftToRight.Send(burst)
			k.Run()
		}
	}) / burstLen
}

// ruleLine is the kind of line a resilience trial arms over the console.
const ruleLine = "RULE ADD 70 MODE ONCE ACT DROP PAT C0C"

func consoleRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	dk := sim.NewKernel(1)
	dec := core.NewCommandDecoder(core.NewDevice(dk, core.DeviceConfig{Name: "ladder.dec"}))
	out["core.command_ns_per_line"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			if resp := dec.Exec(ruleLine); resp != "OK" {
				panic("ladder: " + ruleLine + " answered " + resp)
			}
		}
	})

	// The same line byte by byte over the 115200-baud UART pair, response
	// included: host cost of one reconfiguration.
	ck := sim.NewKernel(1)
	con := serial.NewConsole(ck, core.NewDevice(ck, core.DeviceConfig{Name: "ladder.con"}), 0)
	out["serial.console_ns_per_command"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			con.Send(ruleLine)
			ck.Run()
		}
	})
	if con.LastResponse() != "OK" {
		panic("ladder: console answered " + con.LastResponse())
	}
}

func rulesRungs(budget time.Duration, _ *gen.Inputs, out map[string]float64) {
	set := pairRules(64)
	out["rules.compile64_ms"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			mustCompile(set)
		}
	}) / 1e6

	ex := rules.NewExecutor(mustCompile(set))
	syms := make([]uint16, burstLen)
	for i, c := range hitBurst(burstLen) {
		syms[i] = uint16(c)
	}
	out["rules.stepbatch_ns_per_symbol"] = perOp(budget, func(n int) {
		for i := 0; i < n; i++ {
			ex.StepBatch(syms)
		}
	}) / burstLen
}
