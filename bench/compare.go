package main

import (
	"flag"
	"fmt"

	"netfi/bench/internal/spec"
	"netfi/bench/internal/stats"
)

// verdict of one (metric, workload) row.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares candidate b against baseline a for one metric. A row is
// unresolved when the run-to-run spread of either side is wider than the
// bound and the two sets of runs overlap: the instrument cannot tell.
func judge(m spec.EndToEnd, a, b Metric) verdict {
	if a.Median == 0 {
		return unresolved
	}
	// worsening > 0 means b is worse than a, as a share of a.
	worsening := (b.Median - a.Median) / a.Median
	bBeatsAll := b.Max < a.Min
	if m.Better == spec.Higher {
		worsening = -worsening
		bBeatsAll = b.Min > a.Max
	}
	spread := stats.Spread(a.Samples)
	if s := stats.Spread(b.Samples); s > spread {
		spread = s
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if spread > m.Bound && overlap && !bBeatsAll {
		return unresolved
	}
	switch {
	case worsening > m.Bound:
		return worse
	case worsening < -m.Bound:
		return better
	}
	return same
}

func failedShare(r *WorkloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fpOK := fs.Bool("fingerprint-change-ok", false, "accept changed sim_fingerprints (model-changing PRs only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-fingerprint-change-ok] A.json B.json")
	}
	var a, b ResultFile
	if err := readJSON(fs.Arg(0), &a); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &b); err != nil {
		return err
	}
	failed, err := compare(&a, &b, *fpOK)
	if err != nil {
		return err
	}
	if failed {
		return errFailed
	}
	return nil
}

// compare prints one row per (end-to-end metric, workload) and reports
// whether the candidate must be rejected.
func compare(a, b *ResultFile, fpOK bool) (reject bool, err error) {
	fmt.Printf("A: seed %d commit %s (%d CPUs)   B: seed %d commit %s (%d CPUs)\n",
		a.Seed, a.Env.Commit, a.Env.NumCPU, b.Seed, b.Env.Commit, b.Env.NumCPU)
	if a.Seed != b.Seed || a.Quick != b.Quick {
		return true, fmt.Errorf("the two files measured different inputs (seed %d vs %d, quick %v vs %v)", a.Seed, b.Seed, a.Quick, b.Quick)
	}
	if fpOK {
		fmt.Println("-fingerprint-change-ok: simulated statistics are allowed to differ (model-changing PR)")
	}
	fmt.Printf("%-20s %-19s %13s %27s %13s %27s %6s  %s\n",
		"workload", "metric", "A median", "A min..max", "B median", "B min..max", "bound", "verdict")
	counts := map[verdict]int{}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := b.workload(wa.Workload)
		if !ok {
			return true, fmt.Errorf("B has no workload %s", wa.Workload)
		}
		for _, m := range spec.EndToEndMetrics {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := judge(m, ma, mb)
			counts[v]++
			fmt.Printf("%-20s %-19s %13.6g %13.6g..%-12.6g %13.6g %13.6g..%-12.6g %5.0f%%  %s\n",
				wa.Workload, m.Name, ma.Median, ma.Min, ma.Max, mb.Median, mb.Min, mb.Max, 100*m.Bound, v)
			if v == worse {
				reject = true
			}
		}
		if fa, fb := failedShare(wa), failedShare(wb); fb > fa {
			fmt.Printf("%-20s failed-op share rose from %.3g to %.3g\n", wa.Workload, fa, fb)
			reject = true
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Printf("%-20s sim_fingerprint changed: %.16s -> %.16s\n", wa.Workload, wa.Fingerprint, wb.Fingerprint)
			if !fpOK {
				reject = true
			}
		}
	}
	fmt.Printf("%d better, %d same, %d worse, %d unresolved\n", counts[better], counts[same], counts[worse], counts[unresolved])
	return reject, nil
}
