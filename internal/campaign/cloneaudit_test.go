package campaign

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"netfi/internal/myrinet"
	"netfi/internal/phy"
	"netfi/internal/rules"
	"netfi/internal/sim"
)

// forkMayShare is the immutable state a fork shares with its base by
// design; the audit neither flags nor enters it. A compiled automaton, its
// prefilter and the steps it was built from (an installed rule's steps)
// never change after Compile, and a published mapping snapshot is replaced
// by the next round, never mutated. A program's bound rules and their
// vectors are the engine's, so the audit enters them. (The burst pool's
// depot is shared too, but it is a package global no model object points
// at.)
var forkMayShare = map[reflect.Type]bool{
	automatonType:                            true,
	reflect.TypeOf((*rules.Prefilter)(nil)):  true,
	reflect.TypeOf([]rules.Step(nil)):        true,
	reflect.TypeOf((*myrinet.Snapshot)(nil)): true,
}

// automatonType is the unexported automaton a rules.Program embeds.
var automatonType = func() reflect.Type {
	f, _ := reflect.TypeOf(rules.Program{}).FieldByName("automaton")
	return f.Type
}()

// span is one base-world allocation: a pointee, a slice's backing array or
// a map, named by the field that reached it first.
type span struct {
	lo, hi uintptr
	field  string
}

// graphWalk visits every pointer, slice backing array and map reachable
// from a root by reflection, unexported fields included, and enters what
// visit accepts. Func values, strings and channels are not entered. The walk
// is breadth-first and enters kernels and pools only once the model graph is
// exhausted, so a path is the shortest one through model fields, not one
// through the event queue.
type graphWalk struct {
	seen     map[walkKey]bool
	pointers map[reflect.Type]bool // holdsPointers' memo
	visit    func(addr, size uintptr, t reflect.Type, field, path string) bool
	visits   int

	queue, later []walkItem
}

// walkItem is a value reached through field (Type.field of its nearest
// owning struct) along path.
type walkItem struct {
	v           reflect.Value
	field, path string
}

var walkedLast = map[reflect.Type]bool{
	reflect.TypeOf((*sim.Kernel)(nil)): true,
	reflect.TypeOf((*phy.Pool)(nil)):   true,
}

type walkKey struct {
	addr uintptr
	t    reflect.Type
	n    int
}

// holdsPointers reports whether a value of type t can reach another
// allocation the walk should enter.
func (w *graphWalk) holdsPointers(t reflect.Type) bool {
	if v, ok := w.pointers[t]; ok {
		return v
	}
	var v bool
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		v = true
	case reflect.Array:
		v = t.Len() > 0 && w.holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			v = v || w.holdsPointers(t.Field(i).Type)
		}
	}
	w.pointers[t] = v
	return v
}

// run walks everything reachable from root.
func (w *graphWalk) run(root any) {
	w.seen, w.pointers = map[walkKey]bool{}, map[reflect.Type]bool{}
	w.push(reflect.ValueOf(root), "world", "world")
	for len(w.queue) > 0 || len(w.later) > 0 {
		if len(w.queue) == 0 {
			w.queue, w.later = w.later, nil
		}
		it := w.queue[0]
		w.queue = w.queue[1:]
		w.step(it.v, it.field, it.path)
	}
}

func (w *graphWalk) push(v reflect.Value, field, path string) {
	if t := v.Type(); forkMayShare[t] || !w.holdsPointers(t) {
		return
	} else if walkedLast[t] {
		w.later = append(w.later, walkItem{v, field, path})
	} else {
		w.queue = append(w.queue, walkItem{v, field, path})
	}
}

// enter reports whether the allocation at addr is new to the walk and
// visit accepts it.
func (w *graphWalk) enter(addr, size uintptr, t reflect.Type, n int, field, path string) bool {
	k := walkKey{addr, t, n}
	if w.seen[k] {
		return false
	}
	w.seen[k] = true
	w.visits++
	return w.visit(addr, size, t, field, path)
}

func (w *graphWalk) step(v reflect.Value, field, path string) {
	t := v.Type()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && w.enter(v.Pointer(), t.Elem().Size(), t, 0, field, path) {
			w.push(v.Elem(), field, path)
		}
	case reflect.Slice:
		if v.Cap() == 0 || !w.enter(v.Pointer(), uintptr(v.Cap())*t.Elem().Size(), t, v.Len(), field, path) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.push(v.Index(i), field, fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		if v.IsNil() || !w.enter(v.Pointer(), 1, t, 0, field, path) {
			return
		}
		for it := v.MapRange(); it.Next(); {
			p := fmt.Sprintf("%s[%v]", path, it.Key())
			w.push(it.Key(), field, p)
			w.push(it.Value(), field, p)
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.push(v.Elem(), field, path)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.push(v.Index(i), field, fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			w.push(v.Field(i), t.String()+"."+f.Name, path+"."+f.Name)
		}
	}
}

// auditFork walks a base world and its fork from the same roots — test bed
// (and through it the kernel's queue), plane, reliable endpoints, beacons —
// and fails naming the type and field of every pointer, slice backing
// array or map in the fork that is the base's own, outside forkMayShare.
func auditFork(t *testing.T, base, fork *world) {
	t.Helper()
	var spans []span
	bw := graphWalk{visit: func(addr, size uintptr, _ reflect.Type, field, _ string) bool {
		if size > 0 {
			spans = append(spans, span{addr, addr + size, field})
		}
		return true
	}}
	bw.run(base)
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	// Merge nested and overlapping spans so one search answers "inside any".
	merged := spans[:0]
	for _, s := range spans {
		if n := len(merged); n > 0 && s.lo < merged[n-1].hi {
			merged[n-1].hi = max(merged[n-1].hi, s.hi)
			continue
		}
		merged = append(merged, s)
	}

	// A shared allocation is reported where the fork first reaches it and
	// not entered: what hangs off it is the base's, not the clone's fault.
	fw := graphWalk{visit: func(addr, size uintptr, typ reflect.Type, field, path string) bool {
		i := sort.Search(len(merged), func(i int) bool { return merged[i].lo > addr }) - 1
		if size == 0 || i < 0 || addr >= merged[i].hi {
			return true
		}
		t.Errorf("%s shares the base's %v (fork path %s; base allocation first reached via %s)",
			field, typ, path, merged[i].field)
		return false
	}}
	fw.run(fork)
	// Guard against a vacuous audit: both graphs were actually walked.
	if bw.visits < 100 || fw.visits < 100 {
		t.Errorf("audit walked %d base and %d fork allocations; want a whole world", bw.visits, fw.visits)
	}
	t.Logf("walked %d base and %d fork allocations", bw.visits, fw.visits)
}

// TestCloneAudit: nothing a fork can mutate is shared with its base. The
// fork-equivalence gate compares what a fork computes with a rebuild; this
// checks how the copy is made, so a clone that aliases a slice, a free list
// or an unresolved cross-reference fails by name even when the trials it
// runs happen to agree.
func TestCloneAudit(t *testing.T) {
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			opts := chaosTestOptions(31337, 1)
			opts.ArmedRules = armed
			base := newChaosBase(opts.Seed, opts)
			fork, err := base.fork()
			if err != nil {
				t.Fatal(err)
			}
			auditFork(t, base, fork)
		})
	}
}
