package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"netfi/internal/core"
	"netfi/internal/myrinet"
	"netfi/internal/sim"
)

// Spec is a declarative fault-injection campaign, the way NFTAPE scripts
// drove the real board: a workload, a list of timed fault activations
// (raw injector command lines plus arming/metering), and a measurement
// window. Specs serialize to JSON for `netfi spec`.
type Spec struct {
	// Name labels the campaign in results.
	Name string `json:"name"`
	// Seed drives the deterministic run. Zero selects 1.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS is the measured load window in simulated milliseconds.
	// Zero selects 1000.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Mapping enables the MCP mapping plane (default static routes).
	Mapping bool `json:"mapping,omitempty"`
	// TxQueueLimit bounds each NIC ring (0 = testbed default).
	TxQueueLimit int `json:"tx_queue_limit,omitempty"`
	// Load overrides the workload (zero values = defaults).
	Load LoadSpec `json:"load,omitempty"`
	// Faults lists the injector activations.
	Faults []FaultSpec `json:"faults"`
}

// LoadSpec mirrors LoadConfig in JSON-friendly units.
type LoadSpec struct {
	Burst    int     `json:"burst,omitempty"`
	PeriodMS float64 `json:"period_ms,omitempty"`
	Size     int     `json:"size,omitempty"`
}

// FaultSpec is one injector activation.
type FaultSpec struct {
	// Direction is "L" (tapped node → switch), "R" (switch → tapped
	// node), or "both" (default).
	Direction string `json:"direction,omitempty"`
	// Commands are raw injector command lines (MODE/COMPARE/CORRUPT/CRC
	// ...), sent verbatim over the serial console after "DIR L" or "DIR R";
	// each must be answered OK. MODE lines are yours: nothing is prepended.
	// Mode and the duty fields then arm the trigger by register writes,
	// starting AtMS after the load starts.
	Commands []string `json:"commands"`
	// Mode is "on" (default) or "once".
	Mode string `json:"mode,omitempty"`
	// AtMS delays the activation from the start of the load.
	AtMS float64 `json:"at_ms,omitempty"`
	// DutyOnMS/DutyPeriodMS meter the trigger; zero means armed
	// continuously from AtMS.
	DutyOnMS     float64 `json:"duty_on_ms,omitempty"`
	DutyPeriodMS float64 `json:"duty_period_ms,omitempty"`
}

// SpecResult is the measured outcome of a Spec run.
type SpecResult struct {
	Name string `json:"name"`
	Outcome
	Injections uint64            `json:"injections"`
	Matches    uint64            `json:"matches"`
	Drops      map[string]uint64 `json:"drops,omitempty"`
}

// checkMS rejects a millisecond field RunSpec cannot schedule: negative, NaN,
// or past half of what sim.Duration holds (which takes +Inf with it), so
// adding it to the clock at load start cannot overflow.
func checkMS(field string, v float64) error {
	if !(v >= 0 && v*float64(sim.Millisecond) < math.MaxInt64/2) {
		return fmt.Errorf("campaign: %s %v is not a schedulable duration", field, v)
	}
	return nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// campaign files fail loudly, and every value RunSpec would panic on.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("campaign: bad spec: trailing data after the JSON object")
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("campaign: spec needs a name")
	}
	if err := checkMS("duration_ms", s.DurationMS); err != nil {
		return Spec{}, err
	}
	if err := checkMS("load.period_ms", s.Load.PeriodMS); err != nil {
		return Spec{}, err
	}
	if s.Load.Burst < 0 {
		return Spec{}, fmt.Errorf("campaign: load.burst %d is negative", s.Load.Burst)
	}
	// A payload carries the load's tag and sequence, and its UDP length
	// field is 16 bits.
	if s.Load.Size != 0 && (s.Load.Size < loadTagLen+5 || s.Load.Size > math.MaxUint16-8) {
		return Spec{}, fmt.Errorf("campaign: load.size %d is outside %d..%d", s.Load.Size, loadTagLen+5, math.MaxUint16-8)
	}
	if s.TxQueueLimit < 0 {
		return Spec{}, fmt.Errorf("campaign: tx_queue_limit %d is negative", s.TxQueueLimit)
	}
	for i, f := range s.Faults {
		for _, d := range []struct {
			field string
			v     float64
		}{{"at_ms", f.AtMS}, {"duty_on_ms", f.DutyOnMS}, {"duty_period_ms", f.DutyPeriodMS}} {
			if err := checkMS(fmt.Sprintf("fault %d: %s", i, d.field), d.v); err != nil {
				return Spec{}, err
			}
		}
		switch f.Direction {
		case "", "both", "L", "R":
		default:
			return Spec{}, fmt.Errorf("campaign: fault %d: unknown direction %q", i, f.Direction)
		}
		switch f.Mode {
		case "", "on", "once":
		default:
			return Spec{}, fmt.Errorf("campaign: fault %d: unknown mode %q", i, f.Mode)
		}
		if (f.DutyOnMS > 0) != (f.DutyPeriodMS > 0) {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty_on_ms and duty_period_ms go together", i)
		}
		if f.DutyPeriodMS > 0 && f.DutyOnMS > f.DutyPeriodMS {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty on exceeds period", i)
		}
		if f.DutyPeriodMS > 0 && ms(f.DutyPeriodMS) < myrinet.CharPeriod {
			return Spec{}, fmt.Errorf("campaign: fault %d: duty_period_ms %v is below one character period (%v)",
				i, f.DutyPeriodMS, myrinet.CharPeriod)
		}
		if len(f.Commands) == 0 {
			return Spec{}, fmt.Errorf("campaign: fault %d: no commands", i)
		}
	}
	return s, nil
}

func ms(v float64) sim.Duration { return sim.Duration(v * float64(sim.Millisecond)) }

// bed is the test bed s runs on.
func (s Spec) bed() TestbedConfig {
	return TestbedConfig{Seed: s.Seed, Mapping: s.Mapping, TxQueueLimit: s.TxQueueLimit}
}

// runLoad is the one load campaign, run the way NFTAPE ran every §4
// experiment: build a fresh bed from cfg (the known good state), program
// each of s's faults over the serial console, arm them, offer s's load for
// d, stop it, disarm, and drain 100 ms before anything is counted. The bed
// comes from cfg rather than s.bed() only so the pass-through control run
// can drop the injector. A command line not answered OK is an error naming
// the fault and the line.
func runLoad(cfg TestbedConfig, s Spec, d sim.Duration) (*Testbed, *Load, error) {
	tb := NewTestbed(cfg)
	engines := make([][]*core.Engine, len(s.Faults))
	for i, f := range s.Faults {
		for _, dir := range []string{"L", "R"} {
			if (f.Direction == "L" || f.Direction == "R") && f.Direction != dir {
				continue
			}
			lines := append([]string{"DIR " + dir}, f.Commands...)
			if err := tb.Configure(lines...); err != nil {
				return nil, nil, fmt.Errorf("fault %d: %w", i, err)
			}
			e := tb.Injector.Engine(DirInbound)
			if dir == "L" {
				e = tb.Injector.Engine(DirOutbound)
			}
			engines[i] = append(engines[i], e)
		}
	}
	// Arming is scheduled as direct register writes: the paper's own
	// campaigns pre-programmed the patterns and toggled only the match mode
	// during a run, and a console MODE line sent at the fault's instant
	// would land about 0.7 ms late (8 bytes at about 87 us each).
	for i, f := range s.Faults {
		set := func(m core.MatchMode) func() {
			return func() {
				for _, e := range engines[i] {
					e.SetMatchMode(m)
				}
			}
		}
		on, off := set(core.MatchOn), set(core.MatchOff)
		if f.Mode == "once" {
			on = set(core.MatchOnce)
		}
		if f.DutyPeriodMS == 0 {
			tb.K.After(ms(f.AtMS), on)
			continue
		}
		// Metered arming: re-arm each period, disarm after the on-window.
		for start := ms(f.AtMS); start <= d; start += ms(f.DutyPeriodMS) {
			tb.K.After(start, on)
			tb.K.After(start+ms(f.DutyOnMS), off)
		}
	}

	load := tb.StartLoad(LoadConfig{Burst: s.Load.Burst, Period: ms(s.Load.PeriodMS), Size: s.Load.Size})
	tb.K.RunFor(d)
	load.Stop()
	if tb.Injector != nil {
		tb.ConfigureBothMode(false)
	}
	tb.K.RunFor(100 * sim.Millisecond)
	return tb, load, nil
}

// mustRunLoad is runLoad for the paper's sections, whose fixed command
// lines the injector always accepts.
func mustRunLoad(cfg TestbedConfig, s Spec, d sim.Duration) (*Testbed, *Load) {
	tb, load, err := runLoad(cfg, s, d)
	if err != nil {
		panic(err)
	}
	return tb, load
}

// RunSpec executes a campaign from a known good state and classifies the
// outcome. Seed 0 selects 1 and a zero duration 1 s. A command the injector
// does not answer OK is an error.
func RunSpec(s Spec) (SpecResult, error) {
	if s.Seed == 0 {
		s.Seed = 1
	}
	d := ms(s.DurationMS)
	if d == 0 {
		d = sim.Second
	}
	tb, load, err := runLoad(s.bed(), s, d)
	if err != nil {
		return SpecResult{}, err
	}
	res := SpecResult{Name: s.Name, Outcome: load.Classify(), Drops: map[string]uint64{}}
	for _, dir := range []core.Direction{DirOutbound, DirInbound} {
		_, m, inj := tb.Injector.Engine(dir).Stats()
		res.Matches += m
		res.Injections += inj
	}
	tb.eachCounters(func(c *myrinet.Counters) {
		for r, v := range c.Drops {
			if v > 0 {
				res.Drops[myrinet.DropReason(r).String()] += v
			}
		}
	})
	return res, nil
}

// FormatSpecResult renders a result as text.
func FormatSpecResult(r SpecResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q: sent=%d received=%d loss=%.1f%% class=%s\n",
		r.Name, r.Sent, r.Received, 100*r.LossRate, r.Classification)
	fmt.Fprintf(&b, "  injector: matches=%d injections=%d\n", r.Matches, r.Injections)
	if len(r.Drops) > 0 {
		fmt.Fprintf(&b, "  drops: %v\n", r.Drops)
	}
	return b.String()
}
