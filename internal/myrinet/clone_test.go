package myrinet

import (
	"strings"
	"testing"

	"netfi/internal/sim"
)

// An interface with a route resolver cannot fork (the resolver closes over
// a fabric's topology): the fork fails with an error naming the interface
// instead of panicking.
func TestForkFailsOnRouteResolver(t *testing.T) {
	k := sim.NewKernel(1)
	ifc := NewInterface(k, InterfaceConfig{Name: "resolving"})
	ifc.SetRouteResolver(func(buf []byte, _ MAC) ([]byte, bool) { return buf, false })
	m := sim.NewMapper()
	k.Clone(m)
	ifc.Clone(m)
	if err := m.Finish(); err == nil || !strings.Contains(err.Error(), "resolving") {
		t.Fatalf("fork of an interface with a route resolver: err = %v", err)
	}
}
