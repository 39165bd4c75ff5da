// Package core implements the paper's primary contribution: the
// reconfigurable in-path fault injector. The datapath is the FIFO injector
// of Figs. 2-3 — a circular queue the intercepted character stream flows
// through, a shift-register compare window with per-position "don't care"
// masks, and corrupt logic (toggle or replace under a corrupt mask) that
// overwrites matched characters in the FIFO before they are retransmitted.
// Around the datapath sit the paper's control entities: the command decoder
// and output generator FSMs reachable over a serial link (command.go), the
// capture ring for data monitoring (capture.go), per-identifier statistics
// (monitor.go), and the device assembly that splices into a live cable
// (device.go).
//
// The paper's hardware compares 32-bit segments of the data stream; this
// implementation generalizes the segment to a window of four link characters
// (4 x 9 bits including the Data/Control flag, which the FPGA also sees on
// its parallel interface), so control symbols such as STOP/GO/GAP are
// matchable exactly as the §4.3.1 campaign requires.
package core

import (
	"fmt"

	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/rules"
)

// WindowSize is the compare window in characters — the paper's 32-bit
// compare segment.
const WindowSize = 4

// MatchMode gates the trigger (§3.3, "Match mode").
type MatchMode int

// Match modes. On triggers on every match; Once triggers on the first match
// and ignores all subsequent ones until re-armed; Off disables the trigger.
const (
	MatchOff MatchMode = iota
	MatchOn
	MatchOnce
)

// String returns the mode mnemonic.
func (m MatchMode) String() string {
	switch m {
	case MatchOn:
		return "ON"
	case MatchOnce:
		return "ONCE"
	default:
		return "OFF"
	}
}

// CorruptMode selects how matched data is damaged (§3.3, "Corrupt mode").
type CorruptMode int

// Corrupt modes. Toggle flips the bits set in the corrupt data vector;
// Replace substitutes corrupt data bits selected by the corrupt mask.
const (
	CorruptToggle CorruptMode = iota
	CorruptReplace
)

// String returns the mode mnemonic.
func (m CorruptMode) String() string {
	if m == CorruptReplace {
		return "REPLACE"
	}
	return "TOGGLE"
}

// CharMask selects which of a character's 9 bits participate in a compare
// or replace; the low 8 bits cover the data path and bit 8 the D/C flag.
type CharMask uint16

// Common masks.
const (
	// MaskNone is a fully "don't care" position.
	MaskNone CharMask = 0x000
	// MaskFull matches all 9 bits (data + D/C flag).
	MaskFull CharMask = 0x1FF
	// MaskData matches the 8 data bits, ignoring the D/C flag.
	MaskData CharMask = 0x0FF
)

// Config is the injector's register file — the "injector control inputs" of
// Fig. 3. The zero value is a disabled injector that passes data through
// untouched.
type Config struct {
	// Match gates the trigger.
	Match MatchMode
	// CompareData is the pattern looked for in the compare window,
	// oldest character first.
	CompareData [WindowSize]phy.Character
	// CompareMask holds per-position don't-care masks: a zero mask makes
	// the position match anything.
	CompareMask [WindowSize]CharMask
	// Corrupt selects toggle or replace.
	Corrupt CorruptMode
	// CorruptData is the error vector: bits to flip (toggle) or the
	// replacement character (replace).
	CorruptData [WindowSize]phy.Character
	// CorruptMask selects, in replace mode, which bits of CorruptData
	// substitute the original; other bits pass unchanged.
	CorruptMask [WindowSize]CharMask
	// RecomputeCRC, when set, replaces the last data character before
	// the next GAP with the recomputed Myrinet CRC-8 of the (corrupted)
	// retransmitted packet — the real-time triggering mechanism of §3.2.
	RecomputeCRC bool
}

// fifoEntry is one FIFO slot: the character plus a corrupted flag used by
// the CRC-recompute logic to know the packet in flight was injected, and a
// dropped flag set by rule-engine drop actions — dropped slots are skipped
// (not retransmitted) when they reach the FIFO head.
type fifoEntry struct {
	ch        phy.Character
	corrupted bool
	dropped   bool
}

// Engine is one direction's FIFO injector. It is clocked per character:
// every input character performs the odd-cycle push/pull (Fig. 2) and the
// even-cycle compare/inject (Fig. 3).
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	cfg Config

	fifo  []fifoEntry // ring
	head  int
	count int
	slack int // characters held back; the injector's pipeline depth

	// window is the compare shift register. Like the hardware, it holds
	// the original incoming characters (corruption overwrites only the
	// FIFO copy) and starts idle-filled, so single-character patterns
	// match from the first push. pos locates each character's FIFO slot,
	// or -1 for idle fill.
	window [WindowSize]winEntry

	onceDone  bool
	injectNow bool

	// Rule-engine path (internal/rules): an optional compiled multi-rule
	// trigger program evaluated per character beside the legacy
	// single-pattern compare. Nil ruleExec disables the path; armed, it
	// points at the executor in store, which the engine re-arms in place,
	// and ruleProg at one of store's programs or at SetRuleProgram's.
	ruleProg *rules.Program
	ruleExec *rules.Executor
	store    *ruleStore

	// CRC recompute state (output side).
	runningCRC      byte
	packetCorrupted bool

	// Batch-path state (batch.go): taint counts FIFO slots carrying a
	// corrupted or dropped flag (bulk pops are only legal at zero), and the
	// skip plan caches the anchor bitmap derived from the register file and
	// rule set, rebuilt lazily after any of them change.
	taint      int
	batchDirty bool
	plan       batchPlan

	// Statistics (the §3.2 statistics-gathering feature).
	chars      uint64
	matches    uint64
	injections uint64
	dropped    uint64
	resetsSeen uint64

	// onInject, when set, fires once per injection event alongside the
	// capture trigger; campaigns use it to timestamp the first fault on
	// the wire. Nil on the pass-through path, so it costs nothing there.
	onInject func()

	capture *CaptureRing

	// Reusable output scratch. Process and Flush keep separate buffers so
	// the common `append(e.Process(x), e.Flush()...)` composition stays
	// valid: each call's result survives until that same method runs again.
	procOut  []phy.Character
	flushOut []phy.Character
}

// winEntry is one compare-register position: the original character and its
// FIFO slot (-1 when the position still holds idle fill).
type winEntry struct {
	ch  phy.Character
	pos int
}

// DefaultSlackChars is the injector's pipeline depth, every Device's. It
// reproduces footnote 5: three pipeline clocks plus a few 32-bit segments
// held in the FIFO, about 250 ns at 640 Mb/s — 20 character periods at
// 12.5 ns each.
const DefaultSlackChars = 20

// NewEngine returns an engine holding back slack characters of pipeline.
// slack must be at least WindowSize so matched characters are still in the
// FIFO when corrupted, and at least 2 so the CRC-recompute lookahead works.
func NewEngine(slack int) *Engine {
	if slack < WindowSize {
		panic(fmt.Sprintf("core: slack %d below window size %d", slack, WindowSize))
	}
	e := &Engine{
		fifo:       make([]fifoEntry, nextPow2(slack*4)),
		slack:      slack,
		capture:    NewCaptureRing(DefaultCapturePre, DefaultCapturePost),
		batchDirty: true,
	}
	e.resetWindow()
	return e
}

// resetWindow idle-fills the compare register (the state of a quiet link).
func (e *Engine) resetWindow() {
	for i := range e.window {
		e.window[i] = winEntry{ch: phy.ControlChar(0x00), pos: -1}
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Configure loads the register file. Loading re-arms Once mode and clears a
// pending inject-now.
func (e *Engine) Configure(cfg Config) {
	e.cfg = cfg
	e.onceDone = false
	e.injectNow = false
	e.batchDirty = true
}

// Config returns the current register file.
func (e *Engine) Config() Config { return e.cfg }

// SetMatchMode changes only the match mode, re-arming Once.
func (e *Engine) SetMatchMode(m MatchMode) {
	e.cfg.Match = m
	e.onceDone = false
	e.batchDirty = true
}

// InjectNow requests an unconditional injection on the next even clock
// cycle, exercising the current corrupt configuration on one window.
func (e *Engine) InjectNow() { e.injectNow = true }

// Capture exposes the data-monitoring ring.
func (e *Engine) Capture() *CaptureRing { return e.capture }

// Stats reports characters seen, compare matches, and injections performed.
func (e *Engine) Stats() (chars, matches, injections uint64) {
	return e.chars, e.matches, e.injections
}

// SetInjectionHook registers fn to run once per injection event (nil
// removes it). Monitors use it to learn injection times without polling.
func (e *Engine) SetInjectionHook(fn func()) { e.onInject = fn }

// DroppedChars reports how many characters rule drop actions deleted from
// the retransmitted stream.
func (e *Engine) DroppedChars() uint64 { return e.dropped }

// LinkResetCode is the control-character value the link layer uses for its
// RESET recovery symbol (myrinet.SymReset; asserted equal by test to avoid
// an import cycle). The injector counts RESETs crossing its tap so a
// monitoring console can watch recovery activity from the serial port.
const LinkResetCode = 0x05

// ResetsSeen reports how many link RESET control characters have crossed
// the tap in this direction.
func (e *Engine) ResetsSeen() uint64 { return e.resetsSeen }

// Process clocks the engine over a burst of input characters and returns
// the characters released downstream. The engine holds back its slack, so
// output lags input by exactly the pipeline depth. The returned slice is a
// reused scratch buffer, valid until the next Process call: this is the
// per-symbol hot path of every campaign, and it must not allocate.
func (e *Engine) Process(chars []phy.Character) []phy.Character {
	out := e.procOut[:0]
	for _, c := range chars {
		out = e.stepOne(c, out)
	}
	e.procOut = out
	return out
}

// stepOne clocks the engine over a single character: the per-symbol
// reference path that ProcessBatch falls back to around candidate anchors.
func (e *Engine) stepOne(c phy.Character, out []phy.Character) []phy.Character {
	// Odd cycle: push + shift (the FIFO always has room — the drain
	// below keeps count at the slack level).
	e.push(c)
	// Even cycle: compare result available; corrupt/drop in FIFO.
	e.evenCycle()
	// Steady-state pull so output rate tracks input rate; dropped
	// slots leave the FIFO without being retransmitted.
	for e.count > e.slack {
		if ch, ok := e.popOne(); ok {
			out = append(out, ch)
		}
	}
	return out
}

// Flush drains the held-back pipeline (the characters that idle fill would
// push out once the link goes quiet) and idle-fills the compare register.
// Like Process, it returns a reused scratch buffer, valid until the next
// Flush call.
func (e *Engine) Flush() []phy.Character {
	out := e.flushOut[:0]
	for e.count > 0 {
		if ch, ok := e.popOne(); ok {
			out = append(out, ch)
		}
	}
	e.resetWindow()
	e.flushOut = out
	return out
}

// Pending reports how many characters sit in the pipeline.
func (e *Engine) Pending() int { return e.count }

// ---- datapath ----

func (e *Engine) push(c phy.Character) {
	e.chars++
	if !c.IsData() && c.Byte() == LinkResetCode {
		e.resetsSeen++
	}
	if e.count == len(e.fifo) {
		// Cannot happen in normal operation: Process always pops down
		// to slack first. Guard against misuse.
		panic("core: FIFO overflow")
	}
	pos := (e.head + e.count) & (len(e.fifo) - 1)
	e.fifo[pos] = fifoEntry{ch: c}
	e.count++
	// Shift the original character into the compare register and record
	// its FIFO slot so the even cycle can overwrite the queued copy.
	copy(e.window[:], e.window[1:])
	e.window[WindowSize-1] = winEntry{ch: c, pos: pos}
	e.capture.Observe(c)
}

// popOne retires the FIFO head. ok is false when the slot was deleted by a
// drop action; deletion marks the packet corrupted so CRC recompute covers
// it like any other injection.
func (e *Engine) popOne() (phy.Character, bool) {
	entry := e.fifo[e.head]
	e.head = (e.head + 1) & (len(e.fifo) - 1)
	e.count--

	if entry.corrupted || entry.dropped {
		e.taint--
	}
	if entry.dropped {
		e.packetCorrupted = true
		return 0, false
	}
	c := entry.ch
	if entry.corrupted {
		e.packetCorrupted = true
	}
	if !c.IsData() {
		// GAP (or any control symbol) resets per-packet CRC state.
		e.runningCRC = 0
		e.packetCorrupted = false
		return c, true
	}
	if e.cfg.RecomputeCRC && e.packetCorrupted && e.nextIsGap() {
		// This is the trailing CRC position: substitute the CRC of the
		// retransmitted (corrupted) packet, "recalculating the correct
		// CRC value to transmit immediately before the end-of-frame
		// character" (§3.2).
		c = phy.DataChar(e.runningCRC)
		return c, true
	}
	e.runningCRC = bitstream.CRC8Update(e.runningCRC, c.Byte())
	return c, true
}

// nextIsGap peeks whether the next retransmitted FIFO character ends the
// packet, skipping dropped slots. The pipeline slack guarantees at least one
// character of lookahead whenever pop is allowed.
func (e *Engine) nextIsGap() bool {
	for i := 0; i < e.count; i++ {
		entry := e.fifo[(e.head+i)%len(e.fifo)]
		if entry.dropped {
			continue
		}
		c := entry.ch
		return !c.IsData() && c.Byte() == 0x0C // Myrinet GAP
	}
	return false
}

// evenCycle evaluates the compare and performs the injection.
func (e *Engine) evenCycle() {
	// Rule-engine path: step the compiled automaton on the character just
	// pushed and apply any fired rules' actions to the FIFO.
	if e.ruleExec != nil {
		if fired := e.ruleExec.Step(uint16(e.window[WindowSize-1].ch) & rules.SymbolMask); fired != 0 {
			e.applyRuleActions(fired)
		}
	}
	trigger := e.injectNow
	e.injectNow = false
	if !trigger && e.compare() {
		e.matches++
		switch e.cfg.Match {
		case MatchOn:
			trigger = true
		case MatchOnce:
			if !e.onceDone {
				trigger = true
				e.onceDone = true
			}
		}
	}
	if !trigger {
		return
	}
	e.injections++
	if e.onInject != nil {
		e.onInject()
	}
	for i := 0; i < WindowSize; i++ {
		if e.window[i].pos < 0 {
			continue // idle fill or already retransmitted: nothing to hit
		}
		entry := &e.fifo[e.window[i].pos]
		orig := entry.ch
		switch e.cfg.Corrupt {
		case CorruptToggle:
			entry.ch = orig ^ e.cfg.CorruptData[i]&phy.Character(MaskFull)
		case CorruptReplace:
			m := phy.Character(e.cfg.CorruptMask[i])
			entry.ch = orig&^m | e.cfg.CorruptData[i]&m
		}
		if entry.ch != orig && !entry.corrupted {
			if !entry.dropped {
				e.taint++
			}
			entry.corrupted = true
		}
	}
	e.capture.MarkInjection()
}

// compare evaluates the compare register (original stream data) against the
// compare data under the masks.
func (e *Engine) compare() bool {
	for i := 0; i < WindowSize; i++ {
		if (e.window[i].ch^e.cfg.CompareData[i])&phy.Character(e.cfg.CompareMask[i]) != 0 {
			return false
		}
	}
	return true
}
