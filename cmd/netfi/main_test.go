package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunUsageErrors(t *testing.T) {
	if code := run([]string{}); code != 2 {
		t.Errorf("no args -> %d, want 2", code)
	}
	if code := run([]string{"bogus-experiment"}); code != 2 {
		t.Errorf("unknown experiment -> %d, want 2", code)
	}
	if code := run([]string{"-not-a-flag"}); code != 2 {
		t.Errorf("bad flag -> %d, want 2", code)
	}
	// A scale that is not a positive finite number is refused before any
	// section runs, on either side of the experiment name.
	for _, scale := range []string{"-1", "0", "NaN", "+Inf", "-Inf"} {
		if code := run([]string{"-scale", scale, "table1"}); code != 2 {
			t.Errorf("-scale %s table1 -> %d, want 2", scale, code)
		}
		if code := run([]string{"table1", "-scale", scale}); code != 2 {
			t.Errorf("table1 -scale %s -> %d, want 2", scale, code)
		}
	}
}

// TestRunFabricNeedsTwoHosts: a fabric nobody can send across is an error
// and a non-zero exit, in text and in JSON, never a panic.
func TestRunFabricNeedsTwoHosts(t *testing.T) {
	for _, switches := range []string{"1", "2", "4"} {
		if code := run([]string{"fabric", "-switches", switches, "-hosts", "1"}); code == 0 {
			t.Errorf("fabric -switches %s -hosts 1 -> 0, want non-zero", switches)
		}
	}
	if code := run([]string{"-json", "fabric", "-hosts", "1"}); code == 0 {
		t.Errorf("-json fabric -hosts 1 -> 0, want non-zero")
	}
}

func TestRunJSON(t *testing.T) {
	if code := run([]string{"-json", "monitor"}); code != 0 {
		t.Errorf("-json monitor -> %d, want 0", code)
	}
	// Sections without a machine-readable form are a usage error.
	if code := run([]string{"-json", "table1"}); code != 2 {
		t.Errorf("-json table1 -> %d, want 2", code)
	}
}

func TestRunTable1(t *testing.T) {
	if code := run([]string{"table1"}); code != 0 {
		t.Errorf("table1 -> %d, want 0", code)
	}
}

func TestRunSec434(t *testing.T) {
	if code := run([]string{"-seed", "41", "sec434"}); code != 0 {
		t.Errorf("sec434 -> %d, want 0", code)
	}
}

func TestRunSpec(t *testing.T) {
	var example bytes.Buffer
	if code := runSpecs(&example, nil, false, true); code != 0 {
		t.Fatalf("spec -example -> %d, want 0", code)
	}
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, example.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Through the flag parser, file after the subcommand.
	if code := run([]string{"spec", path}); code != 0 {
		t.Errorf("spec <example> -> %d, want 0", code)
	}
	var out bytes.Buffer
	if code := runSpecs(&out, []string{path}, true, false); code != 0 {
		t.Fatalf("-json spec <example> -> %d, want 0", code)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("-json spec output is not one JSON object: %v\n%s", err, out.String())
	}
	for _, key := range []string{"name", "sent", "received", "loss_rate", "corrupt_accepted",
		"classification", "injections", "matches", "drops"} {
		if _, ok := got[key]; !ok {
			t.Errorf("-json spec output lacks %q: %s", key, out.String())
		}
	}
	if code := run([]string{"spec"}); code != 2 {
		t.Errorf("spec with no file -> %d, want 2", code)
	}
	if code := run([]string{"spec", filepath.Join(t.TempDir(), "missing.json")}); code != 1 {
		t.Errorf("spec <missing file> -> %d, want 1", code)
	}
	if code := run([]string{"table1", "stray"}); code != 2 {
		t.Errorf("table1 with a stray argument -> %d, want 2", code)
	}
}
