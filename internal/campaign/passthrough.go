package campaign

import (
	"fmt"
	"strings"

	"netfi/internal/sim"
)

// PassThroughResult reproduces the §3.5 transparency demonstration: with
// the injector in pass-through mode, "data passed through the fault
// injector at the same rate it would have if the fault injector had not
// been in the data path", control and data packets transfer seamlessly, and
// routes map through in both directions.
type PassThroughResult struct {
	WithoutRate  float64 // delivered messages/s, no injector
	WithRate     float64 // delivered messages/s, injector spliced in
	RateImpact   float64 // fractional change (should be ~0)
	WithoutLoss  float64
	WithLoss     float64
	BothDirsSeen bool // the injector observed traffic in both directions
}

// PassThroughOptions parameterizes the experiment.
type PassThroughOptions struct {
	Seed     int64
	Duration sim.Duration
}

// RunPassThrough measures delivered throughput with and without the device.
func RunPassThrough(opts PassThroughOptions) PassThroughResult {
	if opts.Duration == 0 {
		opts.Duration = 2 * sim.Second
	}
	run := func(insert bool) (rate, loss float64, both bool) {
		s := Spec{Name: "passthrough", Seed: opts.Seed}
		cfg := s.bed()
		cfg.NoInjector = !insert
		tb, load := mustRunLoad(cfg, s, opts.Duration)
		if insert {
			co, _, _ := tb.Injector.Engine(DirOutbound).Stats()
			ci, _, _ := tb.Injector.Engine(DirInbound).Stats()
			both = co > 0 && ci > 0
		}
		return float64(load.Received()) / opts.Duration.Seconds(), load.LossRate(), both
	}
	withoutRate, withoutLoss, _ := run(false)
	withRate, withLoss, both := run(true)
	res := PassThroughResult{
		WithoutRate:  withoutRate,
		WithRate:     withRate,
		WithoutLoss:  withoutLoss,
		WithLoss:     withLoss,
		BothDirsSeen: both,
	}
	if withoutRate > 0 {
		res.RateImpact = (withRate - withoutRate) / withoutRate
	}
	return res
}

// FormatPassThrough renders the result.
func FormatPassThrough(r PassThroughResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered rate without injector: %8.1f msgs/s (loss %.2f%%)\n", r.WithoutRate, 100*r.WithoutLoss)
	fmt.Fprintf(&b, "delivered rate with injector:    %8.1f msgs/s (loss %.2f%%)\n", r.WithRate, 100*r.WithLoss)
	fmt.Fprintf(&b, "rate impact: %+.3f%% (paper: no observable impact)\n", 100*r.RateImpact)
	fmt.Fprintf(&b, "bi-directional pass-through observed: %v\n", r.BothDirsSeen)
	return b.String()
}
