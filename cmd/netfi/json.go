package main

import (
	"encoding/json"
	"fmt"

	"netfi/internal/campaign"
	"netfi/internal/monitor"
	"netfi/internal/sim"
)

// The -json views: durations render as milliseconds so consumers never need
// the simulator's time base.

// jsonTrial is the one view of a campaign.Trial: every trial record embeds
// it, so resilience, chaos and the monitor demo share its keys.
type jsonTrial struct {
	Outcome        string  `json:"outcome"`
	Quiesce        string  `json:"quiesce,omitempty"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	Sent           int     `json:"sent"`
	Delivered      uint64  `json:"delivered"`
	Retransmits    uint64  `json:"retransmits"`
	GaveUp         uint64  `json:"gave_up"`
	RecoveryEvents uint64  `json:"recovery_events"`
	Injections     uint64  `json:"injections"`
	HeldOutputs    int     `json:"held_outputs"`
	InjectedAtMs   float64 `json:"injected_at_ms"` // -1: no fault became observable
	Detected       bool    `json:"detected"`
	DetectLatMs    float64 `json:"detect_latency_ms"` // -1: undetected
	DetectSource   string  `json:"detect_source,omitempty"`
	FlowsExported  uint64  `json:"flows_exported"`
	Error          string  `json:"error,omitempty"`
}

type jsonResilienceTrial struct {
	ID     int    `json:"id"`
	Family string `json:"family"`
	jsonTrial
}

type jsonDetection struct {
	Injected          int       `json:"injected"`
	NonMasked         int       `json:"non_masked"`
	Detected          int       `json:"detected"`
	DetectedNonMasked int       `json:"detected_non_masked"`
	Coverage          float64   `json:"coverage_non_masked"`
	LatencyCDFMs      []float64 `json:"latency_cdf_ms"`
}

type jsonSweep struct {
	Trials    []jsonResilienceTrial `json:"trials"`
	Tally     map[string]int        `json:"tally"`
	Detection jsonDetection         `json:"detection"`
}

type jsonResilience struct {
	Section     string    `json:"section"`
	Seed        int64     `json:"seed"`
	RecoveryOn  jsonSweep `json:"recovery_on"`
	RecoveryOff jsonSweep `json:"recovery_off"`
}

type jsonChaosTrial struct {
	ID   int    `json:"id"`
	Plan string `json:"plan"`
	K    int    `json:"k"`
	jsonTrial
}

type jsonChaos struct {
	Section   string                    `json:"section"`
	Seed      int64                     `json:"seed"`
	Forks     int                       `json:"forks"`
	MaxK      int                       `json:"max_k"`
	Trials    []jsonChaosTrial          `json:"trials"`
	Tally     map[string]int            `json:"tally"`
	PerK      map[string]map[string]int `json:"per_k"`
	Detection jsonDetection             `json:"detection"`
}

type jsonEvent struct {
	TimeMs float64 `json:"time_ms"`
	Kind   string  `json:"kind"`
	Source string  `json:"source"`
	Detail string  `json:"detail"`
	Value  float64 `json:"value"`
}

type jsonFlow struct {
	Tap     string  `json:"tap"`
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	Packets uint64  `json:"packets"`
	Bytes   uint64  `json:"bytes"`
	FirstMs float64 `json:"first_ms"`
	LastMs  float64 `json:"last_ms"`
	Cause   string  `json:"cause"`
}

type jsonMonitor struct {
	Section string `json:"section"`
	Seed    int64  `json:"seed"`
	jsonTrial
	Ticks        uint64               `json:"ticks"`
	Events       []jsonEvent          `json:"events"`
	FlowsDropped uint64               `json:"flows_dropped"`
	Flows        []jsonFlow           `json:"flows"`
	Taps         []campaign.TapTotals `json:"taps"`
}

type jsonFabric struct {
	Section       string   `json:"section"`
	Seed          int64    `json:"seed"`
	Switches      int      `json:"switches"`
	Hosts         int      `json:"hosts"`
	Shards        int      `json:"shards"`
	Drained       bool     `json:"drained"`
	SimTimeMs     float64  `json:"sim_time_ms"`
	WallMs        float64  `json:"wall_ms"`
	Sent          uint64   `json:"sent"`
	Delivered     uint64   `json:"delivered"`
	Bytes         uint64   `json:"bytes"`
	Symbols       uint64   `json:"symbols"`
	Events        uint64   `json:"events"`
	Windows       uint64   `json:"windows"`
	Exchanged     uint64   `json:"exchanged"`
	EventsPerWin  float64  `json:"events_per_window"`
	WinPerSimSec  float64  `json:"windows_per_simsec"`
	SymbolsPerSec float64  `json:"symbols_per_sec"`
	Busiest       uint64   `json:"busiest_events"`
	Ceiling       float64  `json:"ceiling"`
	ShardEvents   []uint64 `json:"shard_events"`
}

func viewFabric(res campaign.FabricResult) jsonFabric {
	v := jsonFabric{
		Section: "fabric", Seed: res.Cfg.Topo.Seed,
		Switches: res.Cfg.Topo.Switches, Hosts: res.Cfg.Topo.Hosts,
		Shards:    res.Cfg.Topo.Shards,
		Drained:   res.Drained,
		SimTimeMs: sim.Duration(res.SimTime).Seconds() * 1000,
		WallMs:    float64(res.Wall.Nanoseconds()) / 1e6,
		Sent:      res.Sent, Delivered: res.Delivered,
		Bytes: res.Bytes, Symbols: res.Symbols,
		Events: res.Events, Windows: res.Windows, Exchanged: res.Exchanged,
		EventsPerWin:  res.EventsPerWindow(),
		WinPerSimSec:  res.WindowsPerSimSec(),
		SymbolsPerSec: res.SymbolsPerSec(),
		Busiest:       res.Busiest,
		Ceiling:       res.Ceiling(),
		ShardEvents:   res.ShardEvents,
	}
	if v.ShardEvents == nil {
		v.ShardEvents = []uint64{}
	}
	return v
}

func ms(d sim.Duration) float64 {
	if d < 0 {
		return -1
	}
	return d.Seconds() * 1000
}

// viewTrial is the one mapping from a campaign.Trial to its JSON view.
func viewTrial(t campaign.Trial) jsonTrial {
	v := jsonTrial{
		Outcome: string(t.Outcome), Quiesce: t.Quiesce, ElapsedMs: ms(t.Elapsed),
		Sent: t.Sent, Delivered: t.Delivered, Retransmits: t.Retransmits,
		GaveUp: t.GaveUp, RecoveryEvents: t.RecoveryEvents,
		Injections: t.Injections, HeldOutputs: t.HeldOutputs,
		InjectedAtMs: ms(t.InjectedAt), Detected: t.Detected,
		DetectLatMs: -1, DetectSource: t.DetectSource,
		FlowsExported: t.FlowsExported, Error: t.Err,
	}
	if t.Detected {
		v.DetectLatMs = ms(t.DetectLatency)
	}
	return v
}

func viewSweep(trials []campaign.ResilienceTrial) jsonSweep {
	sw := jsonSweep{Tally: map[string]int{}}
	for _, t := range trials {
		sw.Trials = append(sw.Trials, jsonResilienceTrial{ID: t.ID, Family: t.Family, jsonTrial: viewTrial(t.Trial)})
		sw.Tally[string(t.Outcome)]++
	}
	sw.Detection = viewDetection(campaign.ComputeDetection(trials))
	return sw
}

func viewDetection(det campaign.DetectionStats) jsonDetection {
	v := jsonDetection{
		Injected: det.Injected, NonMasked: det.NonMasked,
		Detected: det.Detected, DetectedNonMasked: det.DetectedNonMasked,
		Coverage:     det.CoverageNonMasked(),
		LatencyCDFMs: []float64{},
	}
	for _, l := range det.Latencies {
		v.LatencyCDFMs = append(v.LatencyCDFMs, ms(l))
	}
	return v
}

func viewChaos(res campaign.ChaosResult) jsonChaos {
	v := jsonChaos{
		Section: "chaos", Seed: res.Seed, Forks: res.Forks, MaxK: res.MaxK,
		Trials: []jsonChaosTrial{}, Tally: map[string]int{}, PerK: map[string]map[string]int{},
	}
	for _, t := range res.Trials {
		v.Trials = append(v.Trials, jsonChaosTrial{ID: t.ID, Plan: t.Plan, K: t.K, jsonTrial: viewTrial(t.Trial)})
		v.Tally[string(t.Outcome)]++
		k := fmt.Sprintf("%d", t.K)
		if v.PerK[k] == nil {
			v.PerK[k] = map[string]int{}
		}
		v.PerK[k][string(t.Outcome)]++
	}
	v.Detection = viewDetection(campaign.ComputeDetection(res.Trials))
	return v
}

func viewEvents(events []monitor.Event) []jsonEvent {
	out := []jsonEvent{}
	for _, e := range events {
		out = append(out, jsonEvent{
			TimeMs: e.Time.Seconds() * 1000, Kind: e.Kind.String(),
			Source: e.Source, Detail: e.Detail, Value: e.Value,
		})
	}
	return out
}

func viewFlows(flows []monitor.FlowRecord) []jsonFlow {
	out := []jsonFlow{}
	for _, f := range flows {
		out = append(out, jsonFlow{
			Tap: f.Tap, Src: fmt.Sprintf("%x", f.Key.Src), Dst: fmt.Sprintf("%x", f.Key.Dst),
			Packets: f.Packets, Bytes: f.Bytes,
			FirstMs: f.First.Seconds() * 1000, LastMs: f.Last.Seconds() * 1000,
			Cause: f.Cause.String(),
		})
	}
	return out
}

// jsonReport renders the sections with structured output. Sections without a
// machine-readable form report an error (the caller exits 2, matching the
// unknown-experiment path).
func jsonReport(name string, o expOpts) (string, error) {
	var v any
	switch name {
	case "resilience":
		res := campaign.RunResilience(resilienceOptions(o))
		v = jsonResilience{
			Section: "resilience", Seed: o.Seed,
			RecoveryOn:  viewSweep(res.Trials),
			RecoveryOff: viewSweep(res.Baseline),
		}
	case "monitor":
		res := campaign.RunMonitor(o.SectionOptions)
		v = jsonMonitor{
			Section: "monitor", Seed: o.Seed, jsonTrial: viewTrial(res.Trial),
			Ticks: res.Ticks, Events: viewEvents(res.Events),
			FlowsDropped: res.FlowsDropped, Flows: viewFlows(res.Flows), Taps: res.Taps,
		}
	case "chaos":
		v = viewChaos(campaign.RunChaos(chaosOptions(o)))
	case "fabric":
		res, err := runFabric(o)
		if err != nil {
			return "", err
		}
		v = viewFabric(res)
	default:
		return "", fmt.Errorf("-json supports resilience, monitor, chaos, fabric and spec, not %q", name)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
