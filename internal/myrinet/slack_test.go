package myrinet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"netfi/internal/phy"
)

func TestSlackBufferFIFO(t *testing.T) {
	s := NewSlackBuffer(8, 6, 2, nil, nil)
	for i := byte(0); i < 5; i++ {
		if !s.Push(phy.DataChar(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := byte(0); i < 5; i++ {
		c, ok := s.Pop()
		if !ok || c.Byte() != i {
			t.Fatalf("pop %d = %v,%v", i, c, ok)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

func TestSlackBufferWatermarks(t *testing.T) {
	var stops, gos int
	s := NewSlackBuffer(10, 6, 2, func() { stops++ }, func() { gos++ })
	// Fill to high watermark: exactly one STOP.
	for i := 0; i < 6; i++ {
		s.Push(phy.DataChar(0))
	}
	if stops != 1 {
		t.Fatalf("stops = %d after reaching high watermark, want 1", stops)
	}
	if !s.Stopping() {
		t.Fatal("Stopping() = false at high watermark")
	}
	// More pushes do not re-fire STOP.
	s.Push(phy.DataChar(0))
	if stops != 1 {
		t.Errorf("stops = %d after extra push, want 1", stops)
	}
	// Drain to low watermark: exactly one GO.
	for s.Len() > 2 {
		s.Pop()
	}
	if gos != 1 {
		t.Errorf("gos = %d at low watermark, want 1", gos)
	}
	if s.Stopping() {
		t.Error("Stopping() = true after GO")
	}
	// Refill across high: STOP again (hysteresis cycle, Fig. 9).
	for s.Len() < 6 {
		s.Push(phy.DataChar(0))
	}
	if stops != 2 {
		t.Errorf("stops = %d after second cycle, want 2", stops)
	}
}

func TestSlackBufferOverflowDestroysCharacters(t *testing.T) {
	s := NewSlackBuffer(4, 3, 1, nil, nil)
	for i := 0; i < 4; i++ {
		s.Push(phy.DataChar(byte(i)))
	}
	if s.Push(phy.DataChar(99)) {
		t.Error("push into full buffer succeeded")
	}
	if s.overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.overflow)
	}
	// The destroyed character never appears.
	for {
		c, ok := s.Pop()
		if !ok {
			break
		}
		if c.Byte() == 99 {
			t.Error("overflowed character appeared in the stream")
		}
	}
}

func TestSlackBufferGeometryValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 0, 0}, {4, 5, 1}, {4, 2, 2}, {4, 2, 3}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", bad)
				}
			}()
			NewSlackBuffer(bad[0], bad[1], bad[2], nil, nil)
		}()
	}
}

// Property: contents always come out in the order they went in, regardless
// of the interleaving of pushes and pops, and Len never exceeds capacity.
func TestSlackBufferOrderProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		s := NewDefaultSlackBuffer(nil, nil)
		var next, expect byte
		for _, push := range ops {
			if push {
				if s.Push(phy.DataChar(next)) {
					next++
				}
			} else if c, ok := s.Pop(); ok {
				if c.Byte() != expect {
					return false
				}
				expect++
			}
			if s.Len() > s.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSlackBufferWrapAround(t *testing.T) {
	s := NewSlackBuffer(4, 3, 1, nil, nil)
	// Repeatedly push 2 / pop 2 to walk the ring head across the wrap.
	v := byte(0)
	w := byte(0)
	for i := 0; i < 20; i++ {
		s.Push(phy.DataChar(v))
		v++
		s.Push(phy.DataChar(v))
		v++
		for j := 0; j < 2; j++ {
			c, ok := s.Pop()
			if !ok || c.Byte() != w {
				t.Fatalf("iteration %d: got %v,%v want %d", i, c, ok, w)
			}
			w++
		}
	}
}

// wmLog records a slack buffer's watermark actions in order.
type wmLog []string

func (w *wmLog) assertStop() { *w = append(*w, "stop") }
func (w *wmLog) assertGo()   { *w = append(*w, "go") }

// TestSlackBufferPushRunMatchesPush: PushRun has exactly the effect of one
// Push per character — ring contents and layout, count, overflow, STOP
// state and the sequence of watermark actions — over random geometries,
// pre-filled, wrapped and empty-fork (nil) rings, and runs that cross the
// high watermark and overflow.
func TestSlackBufferPushRunMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		capacity := 1 + rng.Intn(150)
		high := 1 + rng.Intn(capacity)
		low := rng.Intn(high)
		var base SlackBuffer
		base.init(capacity, high, low, nil)
		next := byte(0)
		char := func() phy.Character {
			next++
			if rng.Intn(8) == 0 {
				return charGap
			}
			return phy.DataChar(next)
		}
		// Pre-fill, then drain part of it so the ring head wraps; an
		// emptied buffer forks with a nil ring.
		for n := rng.Intn(capacity + 1); n > 0; n-- {
			base.Push(char())
		}
		base.Discard(rng.Intn(base.Len() + 1))
		var run, one SlackBuffer
		var runLog, oneLog wmLog
		base.cloneInto(&run, &runLog)
		base.cloneInto(&one, &oneLog)
		for round := 0; round < 6; round++ {
			chars := make([]phy.Character, rng.Intn(2*capacity+1))
			for i := range chars {
				chars[i] = char()
			}
			got := run.PushRun(chars)
			want := 0
			for _, c := range chars {
				if one.Push(c) {
					want++
				}
			}
			if got != want {
				t.Fatalf("trial %d round %d: PushRun took %d of %d, Push loop %d", trial, round, got, len(chars), want)
			}
			a, b := run, one
			a.wm, b.wm = nil, nil
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(runLog, oneLog) {
				t.Fatalf("trial %d round %d (cap %d high %d low %d, run %d):\nPushRun  %+v %v\nPush     %+v %v",
					trial, round, capacity, high, low, len(chars), a, runLog, b, oneLog)
			}
			d := rng.Intn(run.Len() + 1)
			run.Discard(d)
			one.Discard(d)
		}
	}
}
