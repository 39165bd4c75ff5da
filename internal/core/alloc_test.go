package core

import (
	"testing"

	"netfi/internal/monitor"
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// The injector's per-symbol path — push, compare, inject, pop — must not
// allocate: it is clocked once per character for every character that
// crosses the tap, in both directions.
func TestEngineProcessZeroAlloc(t *testing.T) {
	e := NewEngine(DefaultSlackChars)
	cfg := Config{Match: MatchOn, Corrupt: CorruptToggle}
	cfg.CompareData[WindowSize-1] = phy.DataChar(0x7F)
	cfg.CompareMask[WindowSize-1] = MaskFull
	cfg.CorruptData[WindowSize-1] = phy.Character(0x01)
	e.Configure(cfg)

	// Sanity: the compare/inject machinery is live (an injection event may
	// allocate — it records a capture — so it stays out of the hot loop).
	_ = e.Process([]phy.Character{phy.DataChar(0x7F)})
	if _, matches, injections := e.Stats(); matches != 1 || injections != 1 {
		t.Fatalf("compare engine inactive: matches=%d injections=%d", matches, injections)
	}

	// Steady state: every character is pushed, compared against the armed
	// pattern, and popped — with no trigger and no allocation.
	burst := make([]phy.Character, 64)
	for i := range burst {
		burst[i] = phy.DataChar(byte(0x20 + i))
	}
	for i := 0; i < 50; i++ {
		_ = e.Process(burst) // warm the scratch buffer and drain the capture
	}
	if avg := testing.AllocsPerRun(200, func() { _ = e.Process(burst) }); avg != 0 {
		t.Errorf("Process allocates %.2f objects per 64-char burst, want 0", avg)
	}
	if chars, _, _ := e.Stats(); chars == 0 {
		t.Fatal("datapath saw no characters")
	}
}

// An armed rule program must not reintroduce allocations, even while every
// burst matches, injects, and records a capture: match bookkeeping, the
// injection, and the capture context all ride storage that is reused once
// the bounded event store has filled (drop-new keeps counting injections
// without growing it).
func TestEngineArmedZeroAlloc(t *testing.T) {
	rs := []rules.Rule{{
		ID:     1,
		Mode:   rules.ModeOn,
		Action: rules.ActionToggle,
		Steps: []rules.Step{
			{Sym: 0x120, Mask: rules.SymbolMask},
			{Sym: 0x121, Mask: rules.SymbolMask},
		},
		CorruptData: []uint16{0, 0x01},
	}}
	prog, err := rules.Compile(rs, rules.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"per-symbol", "batch"} {
		t.Run(path, func(t *testing.T) {
			e := NewEngine(DefaultSlackChars)
			e.SetRuleProgram(prog)
			burst := phy.DataChars(make([]byte, 1024))
			burst[512] = phy.DataChar(0x20)
			burst[513] = phy.DataChar(0x21)
			step := func() {
				if path == "batch" {
					e.ProcessBatch(burst)
				} else {
					e.Process(burst)
				}
			}
			// Saturate the capture store and warm every pooled buffer: each
			// burst fires the rule once, so DefaultCaptureEvents bursts fill it.
			for i := 0; i < DefaultCaptureEvents+8; i++ {
				step()
			}
			if _, matches, injections := e.Stats(); matches == 0 || injections == 0 {
				t.Fatalf("armed path inactive: matches=%d injections=%d", matches, injections)
			}
			if avg := testing.AllocsPerRun(200, step); avg != 0 {
				t.Errorf("armed %s path allocates %.2f objects per burst, want 0", path, avg)
			}
			if e.Capture().DroppedEvents() == 0 {
				t.Error("event store never saturated; test is not exercising drop-new reuse")
			}
			if got := len(e.Capture().Events()); got != DefaultCaptureEvents {
				t.Errorf("stored events = %d, want the %d-event bound", got, DefaultCaptureEvents)
			}
		})
	}
}

// The full device path — link delivery into the port, idle fill, engine
// clocking, pooled batch deliveries downstream — must also be allocation-free
// in steady state (amortized: the entries bookkeeping reuses its backing).
func TestDevicePathSteadyStateAllocs(t *testing.T) {
	// The far end hands buffers back either to the kernel's pool (a link
	// controller) or, knowing no kernel, to the shared depot.
	sinks := map[string]func(*sim.Kernel) phy.Receiver{
		"kernel-release": func(k *sim.Kernel) phy.Receiver { return phy.ReceiverFunc(phy.PoolOf(k).Release) },
		"depot-release":  func(*sim.Kernel) phy.Receiver { return phy.ReceiverFunc(phy.ReleaseBurst) },
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(1)
			dev := NewDevice(k, DeviceConfig{Name: "alloc", IdleChar: phy.ControlChar(0x07)})
			cfg := phy.LinkConfig{Name: "in", CharPeriod: 12_500 * sim.Picosecond, PropDelay: 5 * sim.Nanosecond}
			link := spliceL2R(k, dev, cfg, sink(k))

			burst := make([]phy.Character, 32)
			for i := range burst {
				burst[i] = phy.DataChar(byte(0x20 + i))
			}
			cycle := func() {
				link.Send(burst)
				k.Run()
			}
			for i := 0; i < 100; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(200, cycle); avg > 0.1 {
				t.Errorf("device path allocates %.2f objects/op in steady state, want ~0", avg)
			}
		})
	}
}

// Under continuous traffic the pipeline FIFO never empties, so the entries
// queue is consumed from the front while new entry times append at the back.
// Bursts go out back to back, a control symbol every few bursts splits the
// released batches, and the kernel never idles between cycles: the queue
// must reuse its backing array instead of reallocating as it slides. A flow
// tap on the input (the §3.2 per-identifier statistics) must keep the path
// at zero too.
func TestDevicePathContinuousTrafficAllocs(t *testing.T) {
	for _, tapped := range []bool{false, true} {
		name := "untapped"
		if tapped {
			name = "flow-tap"
		}
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(1)
			dev := NewDevice(k, DeviceConfig{Name: "alloc", IdleChar: phy.ControlChar(0x07)})
			var tap *monitor.Tap
			if tapped {
				tap = monitor.NewPlane(k, monitor.Config{}).NewTap("inj", monitor.TapOptions{Flows: true})
				dev.SetTap(LeftToRight, tap)
			}
			cfg := phy.LinkConfig{Name: "in", CharPeriod: 12_500 * sim.Picosecond, PropDelay: 5 * sim.Nanosecond}
			link := spliceL2R(k, dev, cfg, phy.ReceiverFunc(phy.PoolOf(k).Release))

			// Bursts shorter than the pipeline arrive before its flush could
			// fire. Every `every` bursts carry one Myrinet data packet (route
			// byte, type 0x0004, then identifiers and payload), closed by the
			// GAP, so a flow tap parses real headers.
			const n, bursts, every = DefaultSlackChars / 2, 64, 3
			pkt := make([]phy.Character, n*every)
			for i := range pkt {
				pkt[i] = phy.DataChar(byte(0x20 + i))
			}
			copy(pkt, phy.DataChars([]byte{0x00, 0x00, 0x00, 0x00, 0x04}))
			wire := sim.Duration(bursts*n+bursts/every) * cfg.CharPeriod
			cycle := func() {
				for i := 0; i < bursts; i++ {
					link.Send(pkt[i%every*n : (i%every+1)*n])
					if i%every == every-1 {
						link.SendOne(phy.ControlChar(0x0C))
					}
				}
				k.RunFor(wire)
			}
			for i := 0; i < 100; i++ {
				cycle()
			}
			if dev.Engine(LeftToRight).Pending() == 0 {
				t.Fatal("pipeline drained between cycles; traffic is not continuous")
			}
			if tap != nil {
				if _, _, packets, _ := tap.Stats(); packets == 0 {
					t.Fatal("the flow tap parsed no data packets")
				}
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("continuous device path allocates %.2f objects per %d bursts, want 0", avg, bursts)
			}
		})
	}
}
