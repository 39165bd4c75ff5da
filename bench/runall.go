package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/ladder"
	"netfi/bench/internal/spec"
	"netfi/bench/internal/workload"
)

// child runs this binary again with args and returns its standard output.
// Every workload gets a fresh process so peak RSS, pools and GC state are
// its own.
func child(args ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run() // Run waits for the child to exit
	return out.String(), err
}

// withoutLastLine drops the child's machine-readable result line.
func withoutLastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[:i+1]
	}
	return ""
}

// Timed repetitions per workload under `bench run`: fixed, so that two
// result files always compare equal sample counts.
const (
	timedReps = 5
	quickReps = 2
)

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "benchmark seed (held out for later claims: 7)")
	out := fs.String("out", "", "result file (default <bench>/out/result.json)")
	quick := fs.Bool("quick", false, "about 1/30 size, 2 repetitions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(dir, "result.json")
	}
	reps := timedReps
	if *quick {
		reps = quickReps
	}

	file := ResultFile{Env: currentEnv(), Seed: *seed, Quick: *quick, Derived: map[string]Metric{}}
	fmt.Printf("netfi bench: seed %d, %d CPUs, GOMAXPROCS %d, %s, %s, commit %s\n",
		*seed, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.CPUModel, file.Env.Commit)
	if file.Env.Degraded {
		fmt.Printf("DEGRADED: fewer than %d CPUs; the two-thread workloads time-share one core\n", benchThreads)
	}

	ok := true
	common := []string{"--seed", fmt.Sprint(*seed), "--reps", fmt.Sprint(reps), "--trace", "1", "--ladder=false"}
	if *quick {
		common = append(common, "--quick")
	}
	for _, w := range workload.All {
		detail := filepath.Join(dir, "detail-"+w.Name+".json")
		text, err := child(append([]string{"--workload", w.Name, "--detail", detail}, common...)...)
		fmt.Print(withoutLastLine(text))
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		var res WorkloadResult
		if err := readJSON(detail, &res); err != nil {
			return err
		}
		os.Remove(detail)
		ok = ok && res.Correct
		file.Workloads = append(file.Workloads, res)
	}

	detail := filepath.Join(dir, "detail-ladder.json")
	ladderArgs := []string{"ladder", "-seed", fmt.Sprint(*seed), "-detail", detail}
	if *quick {
		ladderArgs = append(ladderArgs, "-quick")
	}
	text, err := child(ladderArgs...)
	fmt.Print(text)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := readJSON(detail, &file.Ladder); err != nil {
		return err
	}
	os.Remove(detail)

	ok = derive(&file) && ok
	fmt.Println("derived")
	names := make([]string, 0, len(file.Derived))
	for n := range file.Derived {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		printMetric(os.Stdout, n, file.Derived[n])
	}

	if err := writeJSON(*out, file); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", *out)
	if !ok {
		fmt.Println("FAILED: at least one check did not pass")
		return errFailed
	}
	fmt.Println("all checks passed")
	return nil
}

// derive fills the cross-workload ratios and checks the one cross-workload
// invariant: both fabric workloads simulate the same thing.
func derive(f *ResultFile) bool {
	ok := true
	layer := func(w, metric string) float64 {
		if r, found := f.workload(w); found {
			return r.PerLayer[metric].Median
		}
		return 0
	}
	f.Derived["campaign.resilience_w1_ops_per_s"] = single("1/s", layer("campaign_resilience", "workload.ref_ops_per_s"))
	f.Derived["campaign.chaos_w1_ops_per_s"] = single("1/s", layer("chaos_sweep", "workload.ref_ops_per_s"))
	f.Derived["campaign.workers_speedup_resilience"] = single("ratio", layer("campaign_resilience", "workload.speedup_vs_ref"))
	f.Derived["campaign.workers_speedup_chaos"] = single("ratio", layer("chaos_sweep", "workload.speedup_vs_ref"))
	// fabric_sharded's reference pass is the one-shard run, seconds apart
	// in the same process: a steadier base than fabric_flood's own process,
	// minutes away on a box whose speed wanders.
	f.Derived["campaign.shard_speedup"] = single("ratio", layer("fabric_sharded", "workload.speedup_vs_ref"))
	flood, haveFlood := f.workload("fabric_flood")
	sharded, haveSharded := f.workload("fabric_sharded")
	if haveFlood && haveSharded && flood.Fingerprint != sharded.Fingerprint {
		fmt.Printf("CHECK FAILED: fabric_sharded sim_fingerprint %.16s differs from fabric_flood's %.16s\n",
			sharded.Fingerprint, flood.Fingerprint)
		ok = false
	}
	return ok
}

// symbolLayer is one ladder rung expressed per link character: the rung's
// value divided by the characters one of its operations covers.
type symbolLayer struct {
	metric string
	chars  float64
}

// smallPacketChars is the wire length of the fabric's 64 B packet as the
// switch rung encodes it: route, type, addresses, payload, CRC, GAP.
const smallPacketChars = 84

// symbolLayers lists, per workload, the ladder rungs a link character
// passes through, for the side-by-side the ladder prints.
var symbolLayers = map[string][]symbolLayer{
	"testbed_stream": {
		{"phy.link_ns_per_symbol", 1}, {"myrinet.linkctl_ns_per_symbol", 1}, {"myrinet.slack_ns_per_symbol", 1},
		{"myrinet.switch_ns_per_symbol_1024B", 1}, {"core.device_ns_per_symbol", 1}, {"core.armed64_ns_per_symbol", 1},
		{"rules.stepbatch_ns_per_symbol", 1}, {"bitstream.crc8_ns_per_byte", 1},
	},
	"fabric_flood": {
		{"phy.link_ns_per_symbol", 1}, {"myrinet.linkctl_ns_per_symbol", 1}, {"myrinet.slack_ns_per_symbol", 1},
		{"myrinet.switch_ns_per_packet_64B", smallPacketChars}, {"bitstream.crc8_ns_per_byte", 1},
	},
}

func cmdLadder(args []string) error {
	fs := flag.NewFlagSet("bench ladder", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "benchmark seed for the two side-by-side workload repetitions")
	quick := fs.Bool("quick", false, "short rungs and about 1/30 workload size")
	detail := fs.String("detail", "", "also write the ladder values as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	budget := 300 * time.Millisecond
	if *quick {
		budget = 10 * time.Millisecond
	}
	in := gen.New(*seed, sizesFor(*quick))
	values := ladder.Run(budget, in)
	result := map[string]Metric{}
	fmt.Println("ladder: each layer's public calls timed alone")
	for _, m := range spec.LadderMetrics {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("ladder did not measure %s", m.Name)
		}
		result[m.Name] = single(m.Unit, v)
		fmt.Printf("  %-38s %14.6g %-6s  moves: %s\n", m.Name, v, m.Unit, m.Moves)
	}

	// One repetition of the two single-thread workloads, so each layer's
	// cost per symbol stands beside what a symbol costs end to end; the
	// remainder is what no rung explains yet.
	for _, name := range []string{"testbed_stream", "fabric_flood"} {
		w, _ := workload.ByName(name)
		s := oneRep(w, in, w.Threads, nil)
		if s.out.Symbols == 0 {
			return fmt.Errorf("%s counted no symbols", name)
		}
		perSymbol := float64(s.wall.Nanoseconds()) / float64(s.out.Symbols)
		fmt.Printf("%s: workload.ns_per_symbol %.4g ns (%d symbols, %d events, %.4g ns/event)\n",
			name, perSymbol, s.out.Symbols, s.out.Events, float64(s.wall.Nanoseconds())/float64(s.out.Events))
		sum := 0.0
		for _, l := range symbolLayers[name] {
			v := values[l.metric] / l.chars
			fmt.Printf("  %-38s %10.4g ns/symbol\n", l.metric, v)
			sum += v
		}
		fmt.Printf("  %-38s %10.4g ns/symbol (rungs overlap: the switch and device rungs contain a controller and an engine)\n", "listed rungs, summed", sum)
		fmt.Printf("  %-38s %10.4g ns/symbol\n", "not explained by one pass through them", perSymbol-sum)
	}
	if *detail != "" {
		return writeJSON(*detail, result)
	}
	return nil
}
