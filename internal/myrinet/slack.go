package myrinet

import (
	"slices"

	"netfi/internal/phy"
)

// SlackBuffer is the receive-side elastic buffer of a Myrinet port (Fig. 9).
// Incoming characters are pushed as they arrive; the port's forwarding logic
// pops them as it can make progress. Crossing the high watermark asserts
// STOP upstream; draining to the low watermark asserts GO. Pushing into a
// full buffer destroys the character — the overflow the paper's
// flow-control corruption campaign provokes.
//
// A link controller embeds its buffer by value and receives the watermark
// actions itself; a free-standing buffer comes from NewSlackBuffer.
//
// The ring's backing array is a power of two sized below the logical
// capacity and grown on demand: a fabric instantiates thousands of these
// and most never hold more than a packet, so allocating the full capacity
// up front dominated fabric construction. A fork leaves an empty buffer's
// ring nil, to be allocated by its first push. Overflow and the watermarks
// act on the logical count, so the growth policy is invisible to flow
// control.
type SlackBuffer struct {
	buf      []phy.Character // power-of-two ring, grown on demand; length 0 in a fork of an empty buffer
	capacity int             // logical limit; pushes beyond it overflow
	head     int
	count    int
	high     int
	low      int
	stopping bool
	wm       watermarks // nil: watermark crossings act on nothing
	overflow uint64     // characters destroyed by pushes into a full buffer
}

// watermarks receives a slack buffer's flow-control actions. The link
// controller implements it; so does watermarkFuncs, for buffers built by
// NewSlackBuffer.
type watermarks interface {
	assertStop()
	assertGo()
}

// watermarkFuncs adapts a pair of optional callbacks to watermarks.
type watermarkFuncs struct{ onStop, onGo func() }

func (w watermarkFuncs) assertStop() {
	if w.onStop != nil {
		w.onStop()
	}
}

func (w watermarkFuncs) assertGo() {
	if w.onGo != nil {
		w.onGo()
	}
}

// slackRingSize returns the initial ring size for a capacity: the smallest
// power of two covering it, at most 64.
func slackRingSize(capacity int) int {
	size := 1
	for size < capacity && size < 64 {
		size <<= 1
	}
	return size
}

// NewSlackBuffer returns a buffer with the given geometry. onStop and onGo
// may be nil. Watermarks must satisfy 0 <= low < high <= capacity.
func NewSlackBuffer(capacity, high, low int, onStop, onGo func()) *SlackBuffer {
	s := &SlackBuffer{}
	var wm watermarks
	if onStop != nil || onGo != nil {
		wm = watermarkFuncs{onStop, onGo}
	}
	s.init(capacity, high, low, wm)
	return s
}

// init sets the geometry of an embedded buffer and binds its watermarks.
func (s *SlackBuffer) init(capacity, high, low int, wm watermarks) {
	if capacity <= 0 || low < 0 || high <= low || high > capacity {
		panic("myrinet: invalid slack buffer geometry")
	}
	*s = SlackBuffer{
		buf:      make([]phy.Character, slackRingSize(capacity)),
		capacity: capacity,
		high:     high,
		low:      low,
		wm:       wm,
	}
}

// grow doubles the ring (or allocates its initial size), unwrapping the
// buffered characters to the front.
func (s *SlackBuffer) grow() {
	n := 2 * len(s.buf)
	if n == 0 {
		n = slackRingSize(s.capacity)
	}
	if cap(s.buf) >= n {
		// Storage a recycled fork kept: unwrap in place and extend.
		slices.Reverse(s.buf[:s.head])
		slices.Reverse(s.buf[s.head:])
		slices.Reverse(s.buf)
		s.buf, s.head = s.buf[:n], 0
		return
	}
	nb := make([]phy.Character, n)
	c := copy(nb, s.buf[s.head:])
	copy(nb[c:], s.buf[:s.head])
	s.buf = nb
	s.head = 0
}

// NewDefaultSlackBuffer returns a buffer with the package-default geometry.
func NewDefaultSlackBuffer(onStop, onGo func()) *SlackBuffer {
	return NewSlackBuffer(DefaultSlackCapacity, DefaultSlackHigh, DefaultSlackLow, onStop, onGo)
}

// Push appends a character. It reports false — and destroys the character —
// when the buffer is full. Crossing the high watermark asserts STOP once
// until the buffer next drains to the low watermark.
func (s *SlackBuffer) Push(c phy.Character) bool {
	if s.count == s.capacity {
		s.overflow++
		return false
	}
	if s.count == len(s.buf) {
		s.grow()
	}
	s.buf[(s.head+s.count)&(len(s.buf)-1)] = c
	s.count++
	if s.count >= s.high && !s.stopping {
		s.stopping = true
		if s.wm != nil {
			s.wm.assertStop()
		}
	}
	return true
}

// PushRun appends a run of characters with the effect of one Push each:
// the characters that do not fit in the logical capacity are destroyed and
// counted as overflow, and crossing the high watermark asserts STOP once. It
// returns how many characters entered the buffer. The STOP fires after the
// whole run is in, like Discard's GO.
func (s *SlackBuffer) PushRun(chars []phy.Character) int {
	n := len(chars)
	if free := s.capacity - s.count; n > free {
		s.overflow += uint64(n - free)
		n = free
	}
	if n == 0 {
		return 0
	}
	for s.count+n > len(s.buf) {
		s.grow()
	}
	mask := len(s.buf) - 1
	tail := (s.head + s.count) & mask
	c := copy(s.buf[tail:], chars[:n])
	copy(s.buf, chars[c:n])
	s.count += n
	if s.count >= s.high && !s.stopping {
		s.stopping = true
		if s.wm != nil {
			s.wm.assertStop()
		}
	}
	return n
}

// Pop removes and returns the oldest character. Draining to the low
// watermark while stopping asserts GO.
func (s *SlackBuffer) Pop() (phy.Character, bool) {
	if s.count == 0 {
		return 0, false
	}
	c := s.buf[s.head]
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.count--
	if s.stopping && s.count <= s.low {
		s.stopping = false
		if s.wm != nil {
			s.wm.assertGo()
		}
	}
	return c, true
}

// Run returns the longest contiguous run of buffered characters starting at
// the oldest, as a slice into the ring: valid until the next Push, not
// consumed (pair with Discard). The run stops at the ring wrap, so a caller
// draining a wrapped buffer sees the remainder on its next call.
func (s *SlackBuffer) Run() []phy.Character {
	n := len(s.buf) - s.head
	if n > s.count {
		n = s.count
	}
	return s.buf[s.head : s.head+n]
}

// Discard removes the oldest n characters with the same watermark effect as
// n Pops: draining a stopping buffer to the low watermark asserts GO. The
// GO fires once, after the whole discard — a caller that must
// interleave the GO with other work splits the discard at Len()-Low().
func (s *SlackBuffer) Discard(n int) {
	if n <= 0 {
		return
	}
	if n > s.count {
		panic("myrinet: discard beyond buffered count")
	}
	s.head = (s.head + n) & (len(s.buf) - 1)
	s.count -= n
	if s.stopping && s.count <= s.low {
		s.stopping = false
		if s.wm != nil {
			s.wm.assertGo()
		}
	}
}

// Low returns the low (GO) watermark.
func (s *SlackBuffer) Low() int { return s.low }

// Flush discards every buffered character and returns how many were
// destroyed. A flush that empties a stopping buffer asserts GO: the link
// reset that triggered it has torn down the upstream path, and whatever
// replaces it must not inherit a stale STOP. Used by the recovery layer only.
func (s *SlackBuffer) Flush() int {
	n := s.count
	s.head = 0
	s.count = 0
	if s.stopping {
		s.stopping = false
		if s.wm != nil {
			s.wm.assertGo()
		}
	}
	return n
}

// Peek returns the oldest character without removing it.
func (s *SlackBuffer) Peek() (phy.Character, bool) {
	if s.count == 0 {
		return 0, false
	}
	return s.buf[s.head], true
}

// Len reports the number of buffered characters.
func (s *SlackBuffer) Len() int { return s.count }

// Cap reports the buffer capacity in characters (the logical limit, not
// the ring's current backing size).
func (s *SlackBuffer) Cap() int { return s.capacity }

// Stopping reports whether the buffer is between its high-watermark STOP
// and the low-watermark GO.
func (s *SlackBuffer) Stopping() bool { return s.stopping }
