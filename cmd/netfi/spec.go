package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"netfi/internal/campaign"
)

// exampleSpec is what `netfi spec -example` prints: a ready-to-run campaign.
const exampleSpec = `{
  "name": "gap-to-go",
  "seed": 7,
  "duration_ms": 1700,
  "tx_queue_limit": 4,
  "faults": [
    {
      "direction": "both",
      "commands": [
        "COMPARE -- -- -- X0C",
        "CORRUPT REPLACE -- -- -- X03"
      ],
      "mode": "on",
      "duty_on_ms": 1,
      "duty_period_ms": 100
    }
  ]
}`

// runSpecs is `netfi spec`: declarative fault-injection campaigns from JSON
// spec files — the "automated fashion" of §1, where NFTAPE scripts drive the
// injector, reset the network to a known good state between runs, and collect
// the results. A spec names a workload, a list of injector activations (raw
// COMPARE/CORRUPT/CRC command lines plus arming and duty metering), and the
// measurement window; the result classifies the outcome as active, passive,
// or no-effect per §4.4. A file that cannot be read or parsed is reported
// and the rest still run.
func runSpecs(w io.Writer, paths []string, asJSON, example bool) int {
	if example {
		fmt.Fprintln(w, exampleSpec)
		return 0
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: netfi [-json] spec <spec.json> ...   (or spec -example)")
		return 2
	}
	exit := 0
	for _, path := range paths {
		if err := runSpecFile(w, path, asJSON); err != nil {
			fmt.Fprintf(os.Stderr, "netfi: spec: %v\n", err)
			exit = 1
		}
	}
	return exit
}

func runSpecFile(w io.Writer, path string, asJSON bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := campaign.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res := campaign.RunSpec(spec)
	if !asJSON {
		_, err = io.WriteString(w, campaign.FormatSpecResult(res))
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
