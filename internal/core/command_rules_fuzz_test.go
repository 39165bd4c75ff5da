package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzRuleCommand feeds arbitrary RULE lines, one per input line, to the
// serial decoder of a board already holding one rule. No line may panic; a
// line answered ERR must leave the installed rule set and its compiled
// program as they were; an ADD answered OK must show its id in RULE LIST,
// and a DEL answered OK must take it out.
// Run with: go test -run='^FuzzRuleCommand$' -fuzz=FuzzRuleCommand ./internal/core
func FuzzRuleCommand(f *testing.F) {
	for _, script := range []string{
		"ADD 1 PAT 55",
		"ADD 1 PRIO 2 MODE ONCE ACT TOGGLE PAT 55 VEC 0F\nLIST\nDEL 1\nLIST",
		"ADD 2 ACT REPLACE PAT A0 G2 B0 VEC X77\nADD 3 MODE AFTER:1 ACT DROP:2 PAT C0C\nCLEAR",
		"ADD 4 PAT -- 23 G* 28\nADD 4 MODE WIN:9 PAT 28\nDEL 5\nDEL 9",
		"ADD 5 PAT 55 G32 66\nLIST\nDEL 5",
		"ADD 1 PAT 55 PAT 66",
		"ADD 1 MODE ON MODE OFF PAT 55",
		"ADD 1 PAT 55 G33 66",
		"ADD 1 ACT CAP PAT 55 VEC 0F",
		"ADD -1 PAT 55\nDEL\nLIST X\nBOGUS",
	} {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script string) {
		dev, dec := newTestDecoder(t)
		eng := dev.Engine(dec.Direction())
		if resp := dec.Exec("RULE ADD 9 PAT C0C"); resp != "OK" {
			t.Fatalf("arming the resident rule -> %q", resp)
		}
		for n, line := range strings.Split(script, "\n") {
			if n == 16 {
				break // each ADD recompiles; bound the work per input
			}
			cmd := "RULE " + line
			rs, prog := eng.Rules(), eng.RuleProgram()
			resp := dec.Exec(cmd)
			if strings.HasPrefix(resp, "ERR") {
				if !reflect.DeepEqual(eng.Rules(), rs) || eng.RuleProgram() != prog {
					t.Fatalf("%q -> %q changed the installed rules", cmd, resp)
				}
				continue
			}
			fields := strings.Fields(strings.ToUpper(cmd))
			if len(fields) < 3 || (fields[1] != "ADD" && fields[1] != "DEL") {
				continue
			}
			id, err := strconv.Atoi(fields[2])
			if err != nil {
				t.Fatalf("%q -> %q with a non-numeric id", cmd, resp)
			}
			list := dec.Exec("RULE LIST")
			if listed := strings.Contains(list, fmt.Sprintf("\nRULE[%d] ", id)); listed != (fields[1] == "ADD") {
				t.Fatalf("%q -> %q, then RULE LIST = %q", cmd, resp, list)
			}
		}
	})
}
