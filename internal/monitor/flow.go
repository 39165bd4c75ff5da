package monitor

import (
	"encoding/hex"
	"fmt"

	"netfi/internal/sim"
)

// FlowKey identifies a unidirectional flow the way the switch sees it: the
// 48-bit source and destination identifiers carried at the head of every
// data packet.
type FlowKey struct {
	Src, Dst [6]byte
}

// String renders "src -> dst" in hex.
func (k FlowKey) String() string { return string(k.Append(nil)) }

// Append appends the String form to b.
func (k FlowKey) Append(b []byte) []byte {
	b = hex.AppendEncode(b, k.Src[:])
	b = append(b, " -> "...)
	return hex.AppendEncode(b, k.Dst[:])
}

// TermCause records why a flow record was exported.
type TermCause uint8

const (
	// CauseActive — long-lived flow cut by the active timeout (periodic
	// export of still-running flows).
	CauseActive TermCause = iota
	// CauseIdle — no traffic for the idle timeout.
	CauseIdle
	// CauseReset — a link RESET tore the path down mid-flow.
	CauseReset
	// CauseShutdown — the plane stopped and flushed its cache.
	CauseShutdown
)

// String returns the NetFlow-style cause mnemonic.
func (c TermCause) String() string {
	switch c {
	case CauseActive:
		return "active"
	case CauseIdle:
		return "idle"
	case CauseReset:
		return "reset"
	case CauseShutdown:
		return "shutdown"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// FlowRecord is one exported NetFlow/IPFIX-style record.
type FlowRecord struct {
	Key     FlowKey
	Tap     string // which tap observed the flow
	Packets uint64
	Bytes   uint64 // payload-stream bytes (route+type+payload+CRC)
	First   sim.Time
	Last    sim.Time
	Cause   TermCause
}

// ExportRing is the bounded buffer flow records are exported into; a
// collector (report generator, CLI) drains it. When full, new records are
// dropped and counted — export pressure must never grow the ring past its
// capacity. Below it the backing array grows on demand, so a plane that
// exports a handful of records (and every fork of it) carries a handful.
type ExportRing struct {
	buf      []FlowRecord // grown on demand up to capacity
	capacity int
	head     int // oldest record
	count    int
	exported uint64
	dropped  uint64
}

// exportRingMin is the backing size of a ring's first allocation.
const exportRingMin = 8

// NewExportRing returns a ring holding up to capacity records.
func NewExportRing(capacity int) *ExportRing {
	if capacity <= 0 {
		capacity = 256
	}
	return &ExportRing{capacity: capacity}
}

// Push exports one record. Returns false (and counts a drop) when full.
func (r *ExportRing) Push(rec FlowRecord) bool {
	if r.count == r.capacity {
		r.dropped++
		return false
	}
	if r.count == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.count)%len(r.buf)] = rec
	r.count++
	r.exported++
	return true
}

// grow doubles the backing array, capped at the capacity, unwrapping the
// buffered records to the front.
func (r *ExportRing) grow() {
	n := min(max(2*len(r.buf), exportRingMin), r.capacity)
	if r.head == 0 && cap(r.buf) >= n {
		// Records already at the front, in an array a recycled fork
		// kept: extend it in place.
		r.buf = r.buf[:n]
		return
	}
	nb := make([]FlowRecord, n)
	c := copy(nb, r.buf[r.head:])
	copy(nb[c:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

// Pop removes the oldest record.
func (r *ExportRing) Pop() (FlowRecord, bool) {
	if r.count == 0 {
		return FlowRecord{}, false
	}
	rec := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return rec, true
}

// Record returns the i-th buffered record, oldest first, 0 <= i < Len.
func (r *ExportRing) Record(i int) FlowRecord { return r.buf[(r.head+i)%len(r.buf)] }

// Records returns the buffered records oldest-first without draining.
func (r *ExportRing) Records() []FlowRecord {
	out := make([]FlowRecord, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// Len reports buffered records.
func (r *ExportRing) Len() int { return r.count }

// Exported reports records accepted since creation.
func (r *ExportRing) Exported() uint64 { return r.exported }

// Dropped reports records rejected because the ring was full.
func (r *ExportRing) Dropped() uint64 { return r.dropped }

// flowState is one active flow in the cache. States are pooled: a flow
// terminating returns its state to the free list, so steady-state traffic
// over a stable set of src/dst pairs allocates nothing.
type flowState struct {
	rec  FlowRecord
	dead bool // lazily removed from the order slice
}

// FlowTable aggregates per-packet observations into flow records and
// exports them on idle timeout, reset, or shutdown. Iteration is in flow
// insertion order — never Go map order — so campaigns stay deterministic
// and serial/parallel sweeps produce identical reports.
type FlowTable struct {
	tap     string
	active  map[FlowKey]*flowState
	order   []*flowState // insertion order; dead entries compacted lazily
	free    []*flowState
	ring    *ExportRing
	idle    sim.Duration
	flows   uint64 // total flows opened
	packets uint64
	bytes   uint64
}

// NewFlowTable returns an empty table exporting into ring. Records carry
// tap as their observation-point label. Idle is the inactivity timeout
// applied by ExpireIdle; zero selects 50 ms.
func NewFlowTable(tap string, ring *ExportRing, idle sim.Duration) *FlowTable {
	if idle == 0 {
		idle = 50 * sim.Millisecond
	}
	return &FlowTable{
		tap:    tap,
		active: make(map[FlowKey]*flowState),
		ring:   ring,
		idle:   idle,
	}
}

// Observe accounts one completed packet of n stream bytes to key.
func (t *FlowTable) Observe(key FlowKey, n int, now sim.Time) {
	t.packets++
	t.bytes += uint64(n)
	st := t.active[key]
	if st == nil {
		if n := len(t.free); n > 0 {
			st = t.free[n-1]
			t.free = t.free[:n-1]
		} else {
			st = &flowState{}
		}
		st.rec = FlowRecord{Key: key, Tap: t.tap, First: now}
		st.dead = false
		t.active[key] = st
		t.order = append(t.order, st)
		t.flows++
	}
	st.rec.Packets++
	st.rec.Bytes += uint64(n)
	st.rec.Last = now
}

// terminate exports st with the given cause and recycles it.
func (t *FlowTable) terminate(st *flowState, cause TermCause) {
	st.rec.Cause = cause
	t.ring.Push(st.rec)
	delete(t.active, st.rec.Key)
	st.dead = true
	t.free = append(t.free, st)
}

// compact drops dead entries from the order slice, preserving order.
func (t *FlowTable) compact() {
	live := t.order[:0]
	for _, st := range t.order {
		if !st.dead {
			live = append(live, st)
		}
	}
	t.order = live
}

// ExpireIdle exports every flow idle at time now, in insertion order.
func (t *FlowTable) ExpireIdle(now sim.Time) int {
	n := 0
	for _, st := range t.order {
		if !st.dead && now-st.rec.Last >= sim.Time(t.idle) {
			t.terminate(st, CauseIdle)
			n++
		}
	}
	if n > 0 {
		t.compact()
	}
	return n
}

// Reset exports every active flow with CauseReset: the tap's link was torn
// down, so whatever was in flight is gone.
func (t *FlowTable) Reset() int {
	n := 0
	for _, st := range t.order {
		if !st.dead {
			t.terminate(st, CauseReset)
			n++
		}
	}
	if n > 0 {
		t.compact()
	}
	return n
}

// FlushAll exports every active flow with CauseShutdown (plane stopping).
func (t *FlowTable) FlushAll() int {
	n := 0
	for _, st := range t.order {
		if !st.dead {
			t.terminate(st, CauseShutdown)
			n++
		}
	}
	if n > 0 {
		t.compact()
	}
	return n
}

// Active reports the current flow-cache population.
func (t *FlowTable) Active() int { return len(t.active) }

// Totals reports flows opened, packets and bytes observed since creation.
func (t *FlowTable) Totals() (flows, packets, bytes uint64) {
	return t.flows, t.packets, t.bytes
}
