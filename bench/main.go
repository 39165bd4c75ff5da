// Command bench is netfi's benchmark: five fixed workloads, six end-to-end
// metrics, and a per-layer ladder. See README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    measure one workload in this process and print, as the last line
//	    of standard output, one JSON object (the PR driver's contract)
//	bench run [-seed 42] [-out out/result.json] [-quick]
//	    every workload, each in a fresh child process, then the ladder
//	bench ladder [-quick]
//	    the per-layer ladder beside the workloads' cost per symbol
//	bench compare [-fingerprint-change-ok] A.json B.json
//	    per (metric, workload): better / same / worse / unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netfi/bench/internal/gen"
	"netfi/bench/internal/spec"
	"netfi/bench/internal/workload"
)

func main() {
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "bench: refusing to measure under the race detector")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(benchThreads)
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "run":
		err = cmdRun(args[1:])
	case len(args) > 0 && args[0] == "ladder":
		err = cmdLadder(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = cmdCompare(args[1:])
	default:
		err = cmdWorkload(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed marks a completed run whose checks failed: everything has been
// printed already, only the exit code is left.
var errFailed = fmt.Errorf("checks failed")

// home is the benchmark's own directory: where out/ lives. run.sh exports
// it; under `go run .` it is the working directory.
func home() string {
	if h := os.Getenv("BENCH_HOME"); h != "" {
		return h
	}
	return "."
}

func outDir() (string, error) {
	dir := filepath.Join(home(), "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func sizesFor(quick bool) gen.Sizes {
	if quick {
		return gen.Quick()
	}
	return gen.Full()
}

// contractLine is the PR driver's result object.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cmdWorkload measures one workload in this process.
func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workload.Names()))
	seed := fs.Int64("seed", 42, "benchmark seed; reaches only the input generators")
	seconds := fs.Float64("seconds", 16, "how long to measure")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	reps := fs.Int("reps", 0, "fixed repetition count instead of -seconds")
	quick := fs.Bool("quick", false, "about 1/30 size (harness self-test)")
	withLadder := fs.Bool("ladder", true, "with -trace 1: measure the layer ladder in this process too")
	detail := fs.String("detail", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workload.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q; have %v", *name, workload.Names())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o := runOptions{
		seed: *seed, sizes: sizesFor(*quick), reps: *reps, seconds: *seconds,
		trace: *trace != 0, ladder: *withLadder,
		setupBudget: 500 * time.Millisecond, log: os.Stdout,
	}
	if *quick {
		o.setupBudget = 50 * time.Millisecond
	}
	if o.trace {
		dir, err := outDir()
		if err != nil {
			return err
		}
		o.tracePath = filepath.Join(dir, "trace-"+w.Name+".json")
		o.ladderBudget = time.Duration(0.4 * *seconds / float64(len(spec.LadderMetrics)) * float64(time.Second))
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			return err
		}
	}

	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	if o.trace {
		for _, m := range spec.PerLayerMetrics() {
			if v, ok := res.PerLayer[m.Name]; ok {
				line.Metrics[m.Name] = contractValue{v.Median, v.Unit}
			}
		}
	} else {
		for _, m := range spec.EndToEndMetrics {
			v := res.EndToEnd[m.Name]
			line.Metrics[m.Name] = contractValue{v.Median, v.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
