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
	// Commands are raw injector command lines (COMPARE/CORRUPT/CRC ...),
	// sent over the serial console; do not include MODE — arming is
	// controlled by Mode and the duty fields.
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
	Name            string            `json:"name"`
	Sent            uint64            `json:"sent"`
	Received        uint64            `json:"received"`
	LossRate        float64           `json:"loss_rate"`
	CorruptAccepted uint64            `json:"corrupt_accepted"`
	Classification  string            `json:"classification"`
	Injections      uint64            `json:"injections"`
	Matches         uint64            `json:"matches"`
	Drops           map[string]uint64 `json:"drops,omitempty"`
}

// checkMS rejects a millisecond field RunSpec cannot schedule: negative, NaN,
// or past what sim.Duration holds (which takes +Inf with it).
func checkMS(field string, v float64) error {
	if !(v >= 0 && v*float64(sim.Millisecond) < math.MaxInt64) {
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

// RunSpec executes a campaign from a known good state and classifies the
// outcome.
func RunSpec(s Spec) SpecResult {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	duration := ms(s.DurationMS)
	if duration == 0 {
		duration = sim.Second
	}
	tb := NewTestbed(TestbedConfig{
		Seed:         seed,
		Mapping:      s.Mapping,
		TxQueueLimit: s.TxQueueLimit,
	})

	for _, f := range s.Faults {
		dirs := []string{"L", "R"}
		if f.Direction == "L" || f.Direction == "R" {
			dirs = []string{f.Direction}
		}
		for _, d := range dirs {
			tb.Configure(append([]string{"DIR " + d, "MODE OFF"}, f.Commands...)...)
		}
		// Arming is scheduled as direct register pokes (the way DutyCycle
		// works): the serial path cannot be driven from inside a
		// simulation event, and the paper's own campaigns pre-programmed
		// the patterns and toggled only the match mode during a run.
		engines := make([]*core.Engine, 0, 2)
		for _, d := range dirs {
			if d == "L" {
				engines = append(engines, tb.Injector.Engine(DirOutbound))
			} else {
				engines = append(engines, tb.Injector.Engine(DirInbound))
			}
		}
		mode := core.MatchOn
		if f.Mode == "once" {
			mode = core.MatchOnce
		}
		arm := func(m core.MatchMode) func() {
			return func() {
				for _, e := range engines {
					e.SetMatchMode(m)
				}
			}
		}
		if f.DutyPeriodMS > 0 {
			// Metered arming: re-arm each period, disarm after the
			// on-window.
			period := ms(f.DutyPeriodMS)
			repeats := int((duration-ms(f.AtMS))/period) + 1
			for i := 0; i < repeats; i++ {
				start := ms(f.AtMS) + sim.Duration(i)*period
				tb.K.After(start, arm(mode))
				tb.K.After(start+ms(f.DutyOnMS), arm(core.MatchOff))
			}
		} else {
			tb.K.After(ms(f.AtMS), arm(mode))
		}
	}

	load := tb.StartLoad(LoadConfig{
		Burst:  s.Load.Burst,
		Period: ms(s.Load.PeriodMS),
		Size:   s.Load.Size,
	})
	tb.K.RunFor(duration)
	load.Stop()
	tb.ConfigureBothMode(false)
	tb.K.RunFor(100 * sim.Millisecond)

	outcome := load.Classify()
	res := SpecResult{
		Name:            s.Name,
		Sent:            outcome.Sent,
		Received:        outcome.Received,
		LossRate:        outcome.LossRate,
		CorruptAccepted: outcome.CorruptAccepted,
		Classification:  outcome.Classification,
		Drops:           map[string]uint64{},
	}
	for _, dir := range []core.Direction{DirOutbound, DirInbound} {
		_, m, inj := tb.Injector.Engine(dir).Stats()
		res.Matches += m
		res.Injections += inj
	}
	for _, n := range tb.Nodes {
		for r, v := range n.Interface().Counters().Drops {
			res.Drops[r.String()] += v
		}
	}
	for p := 0; p < tb.Switch.Ports(); p++ {
		for r, v := range tb.Switch.PortCounters(p).Drops {
			res.Drops[r.String()] += v
		}
	}
	return res
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
