package campaign

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"netfi/internal/phy"
)

// notCompared lists what a fork into a used world may hold differently from
// a fork into an empty one: the world's pools and free lists, which belong
// to the world rather than to the fork, and the fingerprint's scratch.
var notCompared = map[string]bool{
	"sim.Kernel.free":          true,
	"sim.Kernel.local":         true,
	"myrinet.Switch.freeWakes": true,
	"host.Node.freeSends":      true,
	"campaign.world.fp":        true,
	"campaign.world.hooks":     true,
	"core.Engine.store":        true,
}

// The pools themselves are skipped wherever a model object caches one.
var notComparedTypes = map[reflect.Type]bool{
	reflect.TypeOf((*phy.Pool)(nil)): true,
}

// worldCompare walks two worlds in step by reflection, unexported fields
// included, and reports every field whose length or contents differ.
// Capacities are not compared. Pointers are followed in step, and a pointer
// met again must pair with the same counterpart both times, so two owners
// sharing one object in one world share one in the other. Func values are
// compared by code pointer; what forkMayShare names must be the very same
// object in both. Kernels are compared once the model graph is done, as
// the audit walks them, so a path names model fields, not the event queue.
type worldCompare struct {
	t       *testing.T
	what    string
	pairs   map[[2]uintptr]bool
	firstOf map[uintptr]uintptr
	diffs   int
	later   [][2]reflect.Value
}

func compareWorlds(t *testing.T, what string, a, b *world) bool {
	t.Helper()
	c := &worldCompare{t: t, what: what, pairs: map[[2]uintptr]bool{}, firstOf: map[uintptr]uintptr{}}
	c.walk(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), "world")
	for len(c.later) > 0 {
		k := c.later[0]
		c.later = c.later[1:]
		c.walk(k[0], k[1], "kernel")
	}
	if len(c.pairs) < 100 {
		t.Errorf("%s: compared %d objects; want a whole world", what, len(c.pairs))
	}
	return c.diffs == 0
}

func (c *worldCompare) fail(path, format string, args ...any) {
	c.diffs++
	if c.diffs <= 10 {
		c.t.Errorf("%s: %s: %s", c.what, path, fmt.Sprintf(format, args...))
	}
}

func (c *worldCompare) walk(a, b reflect.Value, path string) {
	t := a.Type()
	if notComparedTypes[t] {
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				c.fail(path, "nil %v, other %v", a.IsNil(), b.IsNil())
			}
			return
		}
		pa, pb := a.Pointer(), b.Pointer()
		if forkMayShare[t] {
			if pa != pb {
				c.fail(path, "shared %v differs", t)
			}
			return
		}
		if q, ok := c.firstOf[pa]; ok && q != pb {
			c.fail(path, "%v pairs with two different counterparts", t)
			return
		}
		c.firstOf[pa] = pb
		if c.pairs[[2]uintptr{pa, pb}] {
			return
		}
		c.pairs[[2]uintptr{pa, pb}] = true
		if walkedLast[t] {
			c.later = append(c.later, [2]reflect.Value{a.Elem(), b.Elem()})
			return
		}
		c.walk(a.Elem(), b.Elem(), path)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				c.fail(path, "nil %v, other %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			c.fail(path, "holds %v, other %v", a.Elem().Type(), b.Elem().Type())
			return
		}
		c.walk(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if notCompared[t.String()+"."+f.Name] {
				continue
			}
			c.walk(a.Field(i), b.Field(i), path+"."+f.Name)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			c.fail(path, "length %d, other %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			c.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			c.walk(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			c.fail(path, "length %d, other %d", a.Len(), b.Len())
			return
		}
		for it := a.MapRange(); it.Next(); {
			p := fmt.Sprintf("%s[%v]", path, it.Key())
			v := b.MapIndex(it.Key())
			if !v.IsValid() {
				c.fail(p, "missing from the other")
				continue
			}
			c.walk(it.Value(), v, p)
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() || !a.IsNil() && a.Pointer() != b.Pointer() {
			c.fail(path, "different func")
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			c.fail(path, "%v, other %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			c.fail(path, "%d, other %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			c.fail(path, "%d, other %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			c.fail(path, "%v, other %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			c.fail(path, "%q, other %q", a.String(), b.String())
		}
	case reflect.Chan, reflect.UnsafePointer:
	default:
		c.fail(path, "kind %v not compared", a.Kind())
	}
}

// TestForkIntoUsedWorld is the recycling gate: a world keeps its objects,
// arrays, maps, event structs and pools from fork to fork, so every fork
// must overwrite everything its last trial touched. For 32 (seed, plan A,
// plan B) combinations, half of them cut from an armed-rules base, plan A
// runs on a world, the base is forked into that same world, and then:
// every model field of the recycled world equals a fresh fork's (lengths
// and contents; capacities, pools and free lists aside), the clone audit
// finds nothing shared with the base, and plan B's record — fingerprint
// included — is byte-identical to plan B's on the fresh fork and on a
// rebuild. The combinations run on four workers at once, forking shared
// bases concurrently, so under -race the test also shows recycled worlds
// share nothing across workers.
func TestForkIntoUsedWorld(t *testing.T) {
	type combo struct {
		base *chaosBase
		opts ChaosOptions
		a, b ForkPlan
	}
	var combos []combo
	for seed := int64(1); len(combos) < 32; seed++ {
		opts := chaosTestOptions(seed*104729, 3)
		opts.ArmedRules = seed%2 == 0
		base := newChaosBase(opts.Seed, opts)
		plans := GenerateForkPlans(opts)
		for i := range plans {
			for j := range plans {
				if i != j && len(combos) < 32 && (i+j+int(seed))%2 == 0 {
					combos = append(combos, combo{base, opts, plans[i], plans[j]})
				}
			}
		}
	}
	_, errs := RunTrialsErr(len(combos), 4, func(i int) bool {
		c := combos[i]
		what := fmt.Sprintf("seed %d armed=%v A=%d B=%d", c.opts.Seed, c.opts.ArmedRules, c.a.ID, c.b.ID)
		w := new(forkWorld)
		runForkChaosTrialIn(c.base, w, c.a, c.opts)
		if err := c.base.forkInto(w); err != nil {
			t.Errorf("%s: fork into the used world: %v", what, err)
			return false
		}
		fresh, err := c.base.fork()
		if err != nil {
			t.Errorf("%s: fresh fork: %v", what, err)
			return false
		}
		if !compareWorlds(t, what, &w.world, fresh) {
			return false
		}
		auditFork(t, c.base, &w.world)
		recycled := runChaosTrial(&w.world, c.b, c.opts)
		forked := runChaosTrial(fresh, c.b, c.opts)
		rb := newChaosBase(c.opts.Seed, c.opts)
		rebuilt := runChaosTrial(rb, c.b, c.opts)
		if recycled != forked || recycled != rebuilt {
			t.Errorf("%s: plan B on the recycled world diverges (fresh fork equal: %v, rebuild equal: %v)",
				what, recycled == forked, recycled == rebuilt)
			diffWorlds(t, &w.world, rb)
		}
		return true
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("combination %d: %v", i, err)
		}
	}

	// A trial that panics leaves its world half-run: the sweep's free list
	// drops it, and the next trial forks into another world.
	opts := chaosTestOptions(31337, 1)
	base := newChaosBase(opts.Seed, opts)
	good := GenerateForkPlans(opts)[0]
	bad := ForkPlan{ID: 1, Faults: []Fault{{Kind: FaultNodeDeath, Node: 99}}}
	var ws worlds
	ws.run(base, good, opts)
	if len(ws.free) != 1 {
		t.Fatalf("after one trial the free list holds %d worlds, want 1", len(ws.free))
	}
	used := ws.free[0]
	if _, errs := RunTrialsErr(1, 1, func(int) ChaosTrial { return ws.run(base, bad, opts) }); errs[0] == nil {
		t.Fatal("a plan killing node 99 of 3 did not panic")
	}
	if len(ws.free) != 0 {
		t.Fatalf("the panicking trial's world went back to the free list (%d worlds)", len(ws.free))
	}
	ws.run(base, good, opts)
	if len(ws.free) != 1 || ws.free[0] == used {
		t.Error("the trial after a panic was handed the panicking trial's world")
	}
}
