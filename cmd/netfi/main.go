// Command netfi regenerates every table and figure of the paper's
// evaluation from the simulated test bed:
//
//	netfi table1       FPGA synthesis results (Table 1)
//	netfi table2       injector latency measurements (Table 2)
//	netfi table4       control-symbol corruption campaign (Table 4)
//	netfi sec431       throughput-collapse narratives (§4.3.1)
//	netfi sec432       packet-type corruption (§4.3.2)
//	netfi sec433       physical-address corruption + Fig. 11 (§4.3.3)
//	netfi sec434       UDP checksum evasion (§4.3.4)
//	netfi passthrough  transparency demonstration (§3.5 / Fig. 8)
//	netfi multirule    multi-target corruption via the rule engine
//	netfi resilience   failure-recovery campaign with outcome triage
//	netfi monitor      monitoring plane: accrual detection + flow export
//	netfi chaos        snapshot/fork chaos sweep: warm one testbed, fork it
//	                   per k-failure scenario, triage every fork
//	netfi fabric       sharded multi-switch fabric: build a Clos from
//	                   -switches/-hosts, run the flood workload across
//	                   -shards parallel event kernels, report throughput
//	netfi spec         declarative campaigns from JSON spec files:
//	                   `netfi spec a.json b.json`, `netfi spec -example`
//	                   prints a ready-to-run spec
//	netfi mmon         the §4.2 monitoring program: network map, routing
//	                   tables and counters every 500 ms of a loaded test bed
//	netfi shell        interactive serial console to the injector (§3.3):
//	                   board commands on stdin, '!run <ms>', '!stats', '!quit'
//	netfi all          every section above in order (fabric, spec, mmon and
//	                   shell excluded — their shape comes from their own
//	                   arguments or from stdin, not -scale)
//
// Flags:
//
//	-seed N        simulation seed (default 1)
//	-switches N    fabric switch count (fabric only, default 16)
//	-hosts N       fabric host count (fabric only, default 64)
//	-shards N      fabric shard count (fabric only, default: one per CPU;
//	               output is byte-identical across shard counts)
//	-stats         append coordinator-efficiency stats to the fabric report:
//	               windows, exchanged deliveries, events/window, windows
//	               per simulated second, and the speedup ceiling (events
//	               over those each window's busiest shard ran)
//	-json          machine-readable output (resilience, monitor, chaos,
//	               fabric, spec): detection-latency CDFs, per-trial triage,
//	               flow summaries, coordinator stats, spec results
//	-example       print an example campaign spec and exit (spec only)
//	-corrupt       corrupt the tapped node's identity toward the mapper
//	               mid-run, reproducing Fig. 11 live (mmon only)
//	-live          arm the monitoring plane: per-sample phi values, live
//	               flow counts and anomaly events (mmon only)
//	-scale F       scale experiment durations/rounds toward the paper's full
//	               lengths (default 1.0; e.g. -scale 12 runs Table 2 with
//	               240k ping-pong rounds and §4.3.1 for a full minute; mmon
//	               observes 2 s × F; campaign.SectionOptions states every
//	               paper section's length at scale 1)
//	-workers N     worker goroutines for campaign trials (default: one per
//	               CPU; 1 reproduces the serial runner exactly — output is
//	               byte-identical either way)
//	-cpuprofile F  write a CPU profile to F
//	-memprofile F  write a heap profile to F on exit
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"netfi/internal/campaign"
	"netfi/internal/synth"
	"netfi/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// expOpts carries the shared experiment knobs: the paper sections' seed,
// scale and workers, plus the flags of the sections that take their own.
type expOpts struct {
	campaign.SectionOptions
	// fabric shape (netfi fabric only)
	switches int
	hosts    int
	shards   int
	stats    bool
	// mmon only
	corrupt bool
	live    bool
}

// count scales a full-length run's count n by -scale, flooring at 1: a
// campaign option reads 0 as "use the default", so a small scale must not
// round down into a full-length run.
func (o expOpts) count(n int) int {
	return max(1, int(float64(n)*o.Scale))
}

func run(args []string) int {
	fs := flag.NewFlagSet("netfi", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "scale experiment length toward the paper's full runs")
	workers := fs.Int("workers", campaign.DefaultWorkers(), "worker goroutines for campaign trials (1 = serial)")
	switches := fs.Int("switches", 16, "fabric switch count (fabric only)")
	hosts := fs.Int("hosts", 64, "fabric host count (fabric only)")
	shards := fs.Int("shards", campaign.DefaultWorkers(), "fabric shard count (fabric only)")
	stats := fs.Bool("stats", false, "print coordinator-efficiency stats after the run (fabric only)")
	jsonOut := fs.Bool("json", false, "machine-readable output (resilience, monitor, chaos, fabric, spec)")
	example := fs.Bool("example", false, "print an example campaign spec and exit (spec only)")
	corrupt := fs.Bool("corrupt", false, "corrupt the tapped node's identity toward the mapper mid-run (mmon only)")
	live := fs.Bool("live", false, "arm the monitoring plane: phi values, flows, anomalies (mmon only)")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to file")
	memprofile := fs.String("memprofile", "", "write heap profile to file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flags are accepted on either side of the experiment name:
	// `netfi -seed 2 chaos` and `netfi fabric -switches 128` both work.
	// Only spec takes further arguments (its files).
	rest := fs.Args()
	if len(rest) >= 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
	}
	badScale := !(*scale > 0) || math.IsInf(*scale, 0) // !(>0) also catches NaN
	if badScale {
		fmt.Fprintf(os.Stderr, "netfi: -scale must be a positive finite number (got %v)\n", *scale)
	}
	if badScale || len(rest) < 1 || (fs.NArg() != 0 && rest[0] != "spec") {
		names := make([]string, len(sections))
		for i, sec := range sections {
			names[i] = sec.name
		}
		fmt.Fprintln(os.Stderr, "usage: netfi [-seed N] [-scale F] [-workers N] [-switches N] [-hosts N] [-shards N] [-stats] [-json] [-cpuprofile F] [-memprofile F] <"+
			strings.Join(names, "|")+"|fabric|all>\n       netfi [-json] spec <spec.json> ...   (or spec -example)\n       netfi [-seed N] [-scale F] [-corrupt] [-live] mmon\n       netfi [-seed N] shell")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			}
		}()
	}

	opts := expOpts{
		SectionOptions: campaign.SectionOptions{Seed: *seed, Scale: *scale, Workers: *workers},
		switches:       *switches, hosts: *hosts, shards: *shards,
		stats: *stats, corrupt: *corrupt, live: *live,
	}
	name := rest[0]
	if name == "spec" {
		return runSpecs(os.Stdout, fs.Args(), *jsonOut, *example)
	}
	if *jsonOut {
		out, err := jsonReport(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 2
		}
		fmt.Println(out)
		return 0
	}
	if name == "mmon" {
		return mmon(opts, os.Stdout, os.Stderr)
	}
	if name == "shell" {
		return shell(opts, os.Stdin, os.Stdout)
	}
	if name == "fabric" {
		// The one section whose shape comes from flags a user can get
		// wrong, so the one that can fail.
		out, err := fabricSection(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netfi: %v\n", err)
			return 1
		}
		fmt.Print(out)
		return 0
	}
	if name == "all" {
		// Sections are independent simulations, so `all` fans the sections
		// themselves out over the pool. The inner campaigns then run their
		// trials serially (workers=1) to avoid oversubscribing the CPUs;
		// each section's output is assembled whole, in order, so the
		// combined report is byte-identical to a serial run.
		sectionOpts := opts
		if opts.Workers > 1 {
			sectionOpts.Workers = 1
		}
		reports := campaign.RunTrials(len(sections), opts.Workers, func(i int) string {
			return sections[i].render(sectionOpts)
		})
		var b strings.Builder
		for i, sec := range sections {
			fmt.Fprintf(&b, "==== %s ====\n%s\n", sec.name, reports[i])
		}
		fmt.Print(b.String())
		return 0
	}
	for _, sec := range sections {
		if sec.name == name {
			fmt.Print(sec.render(opts))
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "netfi: unknown experiment %q\n", name)
	return 2
}

// section is one report section: its name on the command line, its title
// line and the report under it.
type section struct {
	name, title string
	report      func(expOpts) string
}

// render returns the section's title line and report.
func (s section) render(o expOpts) string {
	return s.title + "\n" + s.report(o)
}

// sections are the report sections in `netfi all` order.
var sections = []section{
	{"table1", "Table 1: synthesis results of the FPGA code (structural estimate vs paper)",
		func(expOpts) string { return synth.Table1() }},
	{"table2", "Table 2: latency measurements (UDP ping-pong, with/without injector)",
		func(o expOpts) string { return campaign.FormatTable2(campaign.RunTable2(o.SectionOptions)) }},
	{"table4", "Table 4: control symbol corruption campaign",
		func(o expOpts) string { return campaign.FormatTable4(campaign.RunTable4(o.SectionOptions)) }},
	{"sec431", "Section 4.3.1: throughput under flow-control corruption",
		func(o expOpts) string { return campaign.FormatSec431(campaign.RunSec431(o.SectionOptions)) }},
	{"sec432", "Section 4.3.2: packet type corruption",
		func(o expOpts) string { return campaign.FormatSec432(campaign.RunSec432(o.SectionOptions)) }},
	{"sec433", "Section 4.3.3: physical address corruption (includes Fig. 11)",
		func(o expOpts) string { return campaign.FormatSec433(campaign.RunSec433(o.SectionOptions)) }},
	{"sec434", "Section 4.3.4: UDP address corruption / checksum evasion",
		func(o expOpts) string { return campaign.FormatSec434(campaign.RunSec434(o.SectionOptions)) }},
	{"passthrough", "Section 3.5: pass-through transparency",
		func(o expOpts) string { return campaign.FormatPassThrough(campaign.RunPassThrough(o.SectionOptions)) }},
	{"multirule", "Multi-target address corruption via the rule engine (one pass, one rule set)",
		func(o expOpts) string {
			res := campaign.RunMultiRule(o.SectionOptions)
			ent := synth.RuleEngineEntity(res.DFAStates, res.DFAStates*512, res.RulesArmed)
			est := ent.Estimate()
			return campaign.FormatMultiRule(res) +
				fmt.Sprintf("estimated FPGA cost of this rule set: %d gates, %d FGs, %d muxes, %d DFFs\n",
					est.Gates, est.FunctionGenerators, est.Multiplexors, est.DFlipFlops)
		}},
	{"resilience", "Resilience campaign: randomized injections, recovery on vs off (same seeds)",
		func(o expOpts) string { return campaign.FormatResilience(campaign.RunResilience(resilienceOptions(o))) }},
	{"monitor", "Monitoring plane: accrual failure detection, flow export, anomaly triage",
		func(o expOpts) string { return campaign.FormatMonitor(campaign.RunMonitor(o.SectionOptions)) }},
	{"chaos", "Chaos sweep: warm-once testbed forked per k-failure scenario",
		func(o expOpts) string { return campaign.FormatChaos(campaign.RunChaos(chaosOptions(o))) }},
}

// resilienceOptions derives the campaign shape from the shared knobs: 14
// trial pairs at scale 1.
func resilienceOptions(o expOpts) campaign.ResilienceOptions {
	return campaign.ResilienceOptions{
		Seed:    o.Seed,
		Trials:  o.count(14),
		Workers: o.Workers,
	}
}

// chaosOptions derives the sweep shape from the shared knobs: 1000 forks
// at scale 1 (the k <= 2 combination sweep), cut from one warmed base.
func chaosOptions(o expOpts) campaign.ChaosOptions {
	return campaign.ChaosOptions{
		Seed:    o.Seed,
		Forks:   o.count(1000),
		MaxK:    2,
		Workers: o.Workers,
	}
}

// fabricSection runs one sharded-fabric flood to quiescence. The topology
// shape comes from the fabric flags, not -scale: a fabric's cost grows with
// switches*hosts, which the flags express directly.
func fabricSection(o expOpts) (string, error) {
	res, err := runFabric(o)
	if err != nil {
		return "", err
	}
	out := "Sharded fabric: parallel per-core event kernels, one conservative lookahead per window\n" +
		campaign.FormatFabric(res)
	if o.stats {
		out += campaign.FormatFabricStats(res)
	}
	return out, nil
}

// runFabric runs the flood the fabric flags describe; an error names them.
func runFabric(o expOpts) (campaign.FabricResult, error) {
	res, err := campaign.RunFabric(campaign.FabricConfig{
		Topo: topo.Config{
			Switches: o.switches,
			Hosts:    o.hosts,
			Shards:   o.shards,
			Seed:     o.Seed,
		},
	})
	if err != nil {
		return res, fmt.Errorf("fabric -switches %d -hosts %d -shards %d: %w", o.switches, o.hosts, o.shards, err)
	}
	return res, nil
}
