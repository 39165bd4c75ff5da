package netfi

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the core datapath and ablations of the design
// choices DESIGN.md calls out. The campaign benchmarks run one full
// experiment per iteration and report the paper's metric through
// b.ReportMetric, so `go test -bench=.` regenerates the evaluation and
// EXPERIMENTS.md can quote the output directly.

import (
	"testing"

	"netfi/internal/campaign"
	"netfi/internal/core"
	"netfi/internal/enc8b10b"
	"netfi/internal/fibrechannel"
	"netfi/internal/monitor"
	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
	"netfi/internal/synth"
)

// ---- Table 1: synthesis results ----

func BenchmarkTable1Synthesis(b *testing.B) {
	var total synth.Resources
	for i := 0; i < b.N; i++ {
		total = synth.EstimatedTotal()
	}
	b.ReportMetric(float64(total.FunctionGenerators), "FGs")
	b.ReportMetric(float64(total.DFlipFlops), "DFFs")
	b.ReportMetric(float64(synth.PaperTotal.FunctionGenerators), "paper-FGs")
	if b.N == 1 {
		b.Log("\n" + synth.Table1())
	}
}

// ---- Table 2: latency measurements ----

func BenchmarkTable2Latency(b *testing.B) {
	var rows []campaign.Table2Experiment
	for i := 0; i < b.N; i++ {
		rows = campaign.RunTable2(campaign.Table2Options{Seed: 3, Rounds: 5000})
	}
	var sum float64
	for _, r := range rows {
		sum += r.AddedLatency.Nanoseconds()
	}
	b.ReportMetric(sum/float64(len(rows)), "added-ns")
	b.ReportMetric(rows[0].TrueDeviceLag.Nanoseconds(), "true-ns")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatTable2(rows))
	}
}

// ---- Table 4: control symbol corruption ----

func BenchmarkTable4ControlSymbols(b *testing.B) {
	var rows []campaign.Table4Row
	for i := 0; i < b.N; i++ {
		rows = campaign.RunTable4(campaign.Table4Options{Seed: 7})
	}
	var worst, avg float64
	for _, r := range rows {
		avg += r.LossRate
		if r.LossRate > worst {
			worst = r.LossRate
		}
	}
	b.ReportMetric(100*avg/float64(len(rows)), "avg-loss-%")
	b.ReportMetric(100*worst, "worst-loss-%")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatTable4(rows))
	}
}

// ---- §4.3.1: throughput collapse narratives ----

func BenchmarkSec431Throughput(b *testing.B) {
	var r campaign.Sec431Result
	for i := 0; i < b.N; i++ {
		r = campaign.RunSec431(campaign.Sec431Options{Seed: 11, Duration: 2 * sim.Second})
	}
	b.ReportMetric(r.BaselinePerMin, "base-msgs/min")
	b.ReportMetric(r.StopRunPerMin, "stop-msgs/min")
	b.ReportMetric(100*r.GapThroughputFrac, "gap-tput-%")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatSec431(r))
	}
}

// ---- §4.3.2: packet type corruption ----

func BenchmarkSec432PacketTypes(b *testing.B) {
	var r campaign.Sec432Result
	for i := 0; i < b.N; i++ {
		r = campaign.RunSec432(campaign.Sec432Options{Seed: 21})
	}
	reproduced := 0
	for _, ok := range []bool{
		r.MappingNodeRemoved, r.MappingNodeRestored, r.DataPacketDropped,
		r.DataRoutesUntouched, r.RouteMSBConsumed, r.RouteMSBNoIncident,
		r.MisrouteLost, r.MisrouteNotAccepted,
	} {
		if ok {
			reproduced++
		}
	}
	b.ReportMetric(float64(reproduced), "reproduced/8")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatSec432(r))
	}
}

// ---- §4.3.3: address corruption (includes Fig. 11) ----

func BenchmarkSec433Addresses(b *testing.B) {
	var r campaign.Sec433Result
	for i := 0; i < b.N; i++ {
		r = campaign.RunSec433(campaign.Sec433Options{Seed: 31})
	}
	reproduced := 0
	for _, ok := range []bool{
		r.DestDroppedByCRC, r.DestNeitherReceived, r.SelfUnreachable,
		r.SelfMappingWorks, r.SelfRoutingStable, r.CtrlMapsInconsistent,
		r.CtrlMapsVary, r.GhostInMap, r.RealGone, r.GhostTrafficDrops,
	} {
		if ok {
			reproduced++
		}
	}
	b.ReportMetric(float64(reproduced), "reproduced/10")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatSec433(r))
	}
}

// ---- §4.3.4: UDP checksum evasion ----

func BenchmarkSec434UDPChecksum(b *testing.B) {
	var r campaign.Sec434Result
	for i := 0; i < b.N; i++ {
		r = campaign.RunSec434(campaign.Sec434Options{Seed: 41})
	}
	ok := 0.0
	if r.EvadingDelivered {
		ok++
	}
	if r.NonEvadingDropped {
		ok++
	}
	b.ReportMetric(ok, "reproduced/2")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatSec434(r))
	}
}

// ---- §3.5 / Fig. 8: pass-through transparency ----

func BenchmarkFig8PassThrough(b *testing.B) {
	var r campaign.PassThroughResult
	for i := 0; i < b.N; i++ {
		r = campaign.RunPassThrough(campaign.PassThroughOptions{Seed: 51, Duration: sim.Second})
	}
	b.ReportMetric(100*r.RateImpact, "rate-impact-%")
	b.ReportMetric(r.WithRate, "msgs/s")
	if b.N == 1 {
		b.Log("\n" + campaign.FormatPassThrough(r))
	}
}

// ---- Figs. 2-3: the FIFO injector datapath itself ----

func BenchmarkFIFOInjectorPassThrough(b *testing.B) {
	e := core.NewEngine(core.DefaultSlackChars)
	burst := phy.DataChars(make([]byte, 1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ProcessBatch(burst)
	}
}

// BenchmarkFIFOInjectorPerSymbol is the pre-batch baseline: the same unarmed
// burst clocked through the per-symbol FSM, for comparison against the
// cut-through numbers above.
func BenchmarkFIFOInjectorPerSymbol(b *testing.B) {
	e := core.NewEngine(core.DefaultSlackChars)
	burst := phy.DataChars(make([]byte, 1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(burst)
	}
}

func BenchmarkFIFOInjectorMatching(b *testing.B) {
	e := core.NewEngine(core.DefaultSlackChars)
	e.Configure(core.Config{
		Match:       core.MatchOn,
		CompareData: [core.WindowSize]phy.Character{0, 0, phy.DataChar(0x18), phy.DataChar(0x18)},
		CompareMask: [core.WindowSize]core.CharMask{0, 0, core.MaskFull, core.MaskFull},
		Corrupt:     core.CorruptToggle,
		CorruptData: [core.WindowSize]phy.Character{0, 0, 1, 0},
	})
	burst := phy.DataChars(make([]byte, 1024))
	burst[512] = phy.DataChar(0x18)
	burst[513] = phy.DataChar(0x18)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(burst)
	}
}

// BenchmarkFIFOInjectorArmed measures the batch path with 8 rules armed:
// the skip map still covers most of the burst (the rules anchor on two rare
// byte pairs), so ProcessBatch should beat the per-symbol path even though
// the automaton must be consulted around every candidate anchor.
func BenchmarkFIFOInjectorArmed(b *testing.B) {
	for _, n := range []int{8, 64} {
		for _, path := range []string{"batch", "per-symbol"} {
			b.Run(itoa(n)+"rules/"+path, func(b *testing.B) {
				prog, err := rules.Compile(ruleBenchSet(n), rules.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if pf := prog.Prefilter(); pf == nil {
					b.Fatal("armed benchmark rules compiled without a prefilter")
				}
				e := core.NewEngine(core.DefaultSlackChars)
				e.SetRuleProgram(prog)
				burst := phy.DataChars(make([]byte, 1024))
				burst[512] = phy.DataChar(0x20)
				burst[513] = phy.DataChar(0x21)
				b.SetBytes(1024)
				b.ResetTimer()
				if path == "batch" {
					for i := 0; i < b.N; i++ {
						e.ProcessBatch(burst)
					}
				} else {
					for i := 0; i < b.N; i++ {
						e.Process(burst)
					}
				}
			})
		}
	}
}

// BenchmarkRuleEngine measures the multi-rule trigger path through the same
// datapath as the legacy benchmark above: bursts of 1024 characters with one
// embedded two-character match, with 1, 8 and 64 concurrent rules armed, in
// both compiled forms (flat DFA transition table vs per-rule NFA lanes). The
// DFA rows are the hardware-faithful cost model — per-symbol work independent
// of rule count — and must stay within small constant factors of the legacy
// single-pattern matcher. The lanes rows get there the way real rule sets do:
// rule 1 grows a MaxGap-bounded third step, which no 1024-state DFA tracks.
func BenchmarkRuleEngine(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		for _, form := range []string{"dfa", "lanes"} {
			set := ruleBenchSet(n)
			if form == "lanes" {
				set[0].Steps = append(set[0].Steps,
					rules.Step{Sym: 0x100, Mask: rules.SymbolMask, Gap: rules.MaxGap})
			}
			b.Run(itoa(n)+"rules/"+form, func(b *testing.B) {
				prog, err := rules.Compile(set, rules.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := prog.Stats().Mode; (got == "dfa") != (form == "dfa") {
					b.Fatalf("expected %s form, compiled to %s", form, got)
				}
				e := core.NewEngine(core.DefaultSlackChars)
				e.SetRuleProgram(prog)
				burst := phy.DataChars(make([]byte, 1024))
				burst[512] = phy.DataChar(0x20)
				burst[513] = phy.DataChar(0x21)
				b.SetBytes(1024)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Process(burst)
				}
				b.ReportMetric(float64(prog.Stats().DFAStates), "dfa-states")
			})
		}
	}
}

// ruleBenchSet builds n two-step toggle rules over disjoint byte pairs;
// only rule 1's pair is embedded in the benchmark burst.
func ruleBenchSet(n int) []rules.Rule {
	rs := make([]rules.Rule, n)
	for i := range rs {
		b0 := uint16(0x20 + 2*i)
		rs[i] = rules.Rule{
			ID:     i + 1,
			Mode:   rules.ModeOn,
			Action: rules.ActionToggle,
			Steps: []rules.Step{
				{Sym: 0x100 | b0, Mask: rules.SymbolMask},
				{Sym: 0x100 | (b0 + 1), Mask: rules.SymbolMask},
			},
			CorruptData: []uint16{0, 0x01},
		}
	}
	return rs
}

// ---- Fig. 9: slack buffer ----

func BenchmarkFig9SlackBuffer(b *testing.B) {
	s := myrinet.NewDefaultSlackBuffer(nil, nil)
	c := phy.DataChar(0x55)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(c)
		s.Pop()
	}
}

// ---- monitoring plane ----

// monitorBenchBurst builds a wire burst of eight complete data packets
// (route hop, type, MACs, 100-byte payload, CRC stand-in, GAP) cycling over
// six src/dst pairs, as a switch-port tap would observe it.
func monitorBenchBurst() []phy.Character {
	var chars []phy.Character
	for p := 0; p < 8; p++ {
		dst, src := campaign.NodeMAC(p%3), campaign.NodeMAC((p+1)%3)
		raw := []byte{myrinet.SwitchHop(2), myrinet.RouteFinal, 0, 0, 0, byte(myrinet.TypeData)}
		raw = append(raw, dst[:]...)
		raw = append(raw, src[:]...)
		for i := 0; i < 100; i++ {
			raw = append(raw, 0x55)
		}
		raw = append(raw, 0xAB)
		chars = append(chars, phy.DataChars(raw)...)
		chars = append(chars, phy.ControlChar(myrinet.SymGap))
	}
	return chars
}

// BenchmarkMonitorTap measures the tap's per-character observation cost with
// everything armed: packet reassembly, flow aggregation, and the accrual
// detector. Steady state must be allocation-free (the alloc_test guard in
// internal/myrinet pins the disabled path at exactly zero).
func BenchmarkMonitorTap(b *testing.B) {
	k := sim.NewKernel(1)
	p := monitor.NewPlane(k, monitor.Config{})
	tap := p.NewTap("bench", monitor.TapOptions{Flows: true, Detect: true})
	burst := monitorBenchBurst()
	now := sim.Time(0)
	b.SetBytes(int64(len(burst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.Time(sim.Microsecond)
		tap.ObserveChars(now, burst)
	}
	_, _, packets, _ := tap.Stats()
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "packets/s")
}

// BenchmarkMonitorFlowExport measures flow-record throughput through the
// full cache life cycle: open (pooled state), aggregate, idle-expire into
// the bounded export ring, and drain.
func BenchmarkMonitorFlowExport(b *testing.B) {
	ring := monitor.NewExportRing(1024)
	ft := monitor.NewFlowTable("bench", ring, sim.Millisecond)
	var key monitor.FlowKey
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.Src[0], key.Src[1] = byte(i), byte(i>>8)
		now += sim.Time(10 * sim.Microsecond)
		ft.Observe(key, 64, now)
		if i&63 == 63 {
			now += sim.Time(2 * sim.Millisecond)
			ft.ExpireIdle(now)
			for {
				if _, ok := ring.Pop(); !ok {
					break
				}
			}
		}
	}
	b.ReportMetric(float64(ring.Exported())/b.Elapsed().Seconds(), "flows/s")
}

// ---- substrate micro-benchmarks ----

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		k.Step()
	}
}

// BenchmarkKernel exercises the event kernel with the schedule/fire/cancel
// mix a campaign run produces: mostly near-future events landing in the
// timer wheel's first level, some spread across the outer levels, a tail
// beyond the wheel horizon (heap fallback), and a fraction canceled before
// they fire. Reports events/s across the whole mix.
func BenchmarkKernel(b *testing.B) {
	delays := [8]sim.Duration{
		// L0 (sub-4µs), L1, L2, and past-horizon heap delays, weighted
		// toward the near future like real link traffic.
		50 * sim.Nanosecond,
		800 * sim.Nanosecond,
		2 * sim.Microsecond,
		30 * sim.Microsecond, // L1
		700 * sim.Microsecond,
		9 * sim.Millisecond, // L2
		16 * sim.Millisecond,
		40 * sim.Millisecond, // heap fallback (beyond the ~17ms horizon)
	}
	k := sim.NewKernel(1)
	nop := func() {}
	var pending []sim.EventID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := k.After(delays[i&7], nop)
		if i&7 == 3 {
			pending = append(pending, id)
		}
		if i&15 == 15 {
			// Cancel a scheduled-but-unfired event, then drain a bit so
			// the pending set stays bounded and events actually fire.
			k.Cancel(pending[len(pending)-1])
			pending = pending[:len(pending)-1]
			for j := 0; j < 16 && k.Step(); j++ {
			}
		}
	}
	b.StopTimer()
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCampaignThroughput measures the resilience campaign's trials/sec
// at 1, 2, and N workers. Each iteration runs a fixed small sweep (trials
// on + off per trial pair); the per-worker sub-benchmarks share the seed so
// the computed results are identical and only wall-clock differs.
func BenchmarkCampaignThroughput(b *testing.B) {
	counts := []int{1, 2, campaign.DefaultWorkers()}
	if counts[2] < 4 {
		counts[2] = 4
	}
	for _, workers := range counts {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			const trials = 8
			for i := 0; i < b.N; i++ {
				campaign.RunResilience(campaign.ResilienceOptions{
					Seed:    42,
					Trials:  trials,
					Workers: workers,
				})
			}
			// Each trial runs twice (recovery on and off).
			b.ReportMetric(float64(b.N*trials*2)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

func Benchmark8b10bEncode(b *testing.B) {
	rd := enc8b10b.RDMinus
	for i := 0; i < b.N; i++ {
		_, rd, _ = enc8b10b.Encode(byte(i), false, rd)
	}
}

func Benchmark8b10bDecode(b *testing.B) {
	code, _, _ := enc8b10b.Encode(0x55, false, enc8b10b.RDMinus)
	for i := 0; i < b.N; i++ {
		enc8b10b.Decode(code, enc8b10b.RDMinus)
	}
}

// ---- ablations ----

// BenchmarkAblationPipelineDepth reports the injector's added latency as a
// function of its FIFO slack depth — the designer's trade-off of footnote 5
// ("the latency depends greatly on the VHDL designer's ability to meet
// timing constraints without pipelining the inject logic excessively").
func BenchmarkAblationPipelineDepth(b *testing.B) {
	for _, slack := range []int{4, 8, 20, 40, 80} {
		b.Run(benchName("slack", slack), func(b *testing.B) {
			var lat sim.Duration
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(1)
				dev := core.NewDevice(k, core.DeviceConfig{Name: "abl", SlackChars: slack})
				lat = dev.Latency()
			}
			b.ReportMetric(lat.Nanoseconds(), "latency-ns")
		})
	}
}

// BenchmarkAblationChunkContention measures baseline delivered throughput
// under the campaign load as the workload burst size grows — the knob that
// controls how hard the slack-buffer flow control works.
func BenchmarkAblationChunkContention(b *testing.B) {
	for _, burst := range []int{2, 10, 25} {
		b.Run(benchName("burst", burst), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				tb := campaign.NewTestbed(campaign.TestbedConfig{Seed: 1})
				load := tb.StartLoad(campaign.LoadConfig{
					Burst:  burst,
					Period: 12_500 * sim.Microsecond * sim.Duration(burst) / 10,
				})
				tb.K.RunFor(sim.Second)
				load.Stop()
				tb.K.RunFor(50 * sim.Millisecond)
				rate = float64(load.Received())
			}
			b.ReportMetric(rate, "msgs/s")
		})
	}
}

// BenchmarkAblationFCMedium sweeps corruption probability on the Fibre
// Channel medium: the identical injector device, spliced into an 8b/10b
// link, toggling one wire bit of every Nth matched code group. Reported
// frame-loss tracks the injection rate — the medium-generality claim of
// §1/§3.4 made quantitative.
func BenchmarkAblationFCMedium(b *testing.B) {
	for _, every := range []int{1, 4, 16} {
		b.Run(benchName("corrupt-every", every), func(b *testing.B) {
			var lossPct float64
			for i := 0; i < b.N; i++ {
				lossPct = fcCorruptionRun(every)
			}
			b.ReportMetric(lossPct, "frame-loss-%")
		})
	}
}

// fcCorruptionRun sends 200 frames through a spliced FC link, re-arming the
// injector's once-mode before every Nth frame, and returns the loss rate.
func fcCorruptionRun(every int) float64 {
	k := sim.NewKernel(1)
	a, bPort, cable := fcConnect(k)
	neutral, _, _ := enc8b10b.Encode(0xB5, false, enc8b10b.RDMinus)
	dev := core.NewDevice(k, core.DeviceConfig{
		Name:       "fc-abl",
		CharPeriod: 9412 * sim.Picosecond,
		IdleChar:   phy.Character(neutral),
	})
	dev.Insert(cable)
	victim, _, _ := enc8b10b.Encode(0x3C, false, enc8b10b.RDMinus)
	cfg := core.Config{
		Match:       core.MatchOnce,
		CompareData: [core.WindowSize]phy.Character{0, 0, 0, phy.Character(victim)},
		CompareMask: [core.WindowSize]core.CharMask{0, 0, 0, 0x3FF},
		Corrupt:     core.CorruptToggle,
		CorruptData: [core.WindowSize]phy.Character{0, 0, 0, 0x008},
	}
	delivered := 0
	bPort.SetFrameHandler(func(*fibrechannel.Frame) { delivered++ })
	const frames = 200
	for i := 0; i < frames; i++ {
		if i%every == 0 {
			dev.Engine(core.LeftToRight).Configure(cfg)
		}
		a.Send(&fibrechannel.Frame{
			Header:  fibrechannel.Header{DID: bPort.Addr(), SID: a.Addr(), SeqCnt: uint16(i)},
			Payload: []byte{0x3C, 0x3C, 0x3C, 0x3C},
		})
		k.Run()
	}
	return 100 * float64(frames-delivered) / frames
}

func fcConnect(k *sim.Kernel) (*fibrechannel.NPort, *fibrechannel.NPort, *phy.Cable) {
	return fibrechannel.Connect(k,
		fibrechannel.NPortConfig{Name: "A", Addr: 0x010101},
		fibrechannel.NPortConfig{Name: "B", Addr: 0x020202})
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
