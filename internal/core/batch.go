package core

import (
	"netfi/internal/bitstream"
	"netfi/internal/phy"
	"netfi/internal/rules"
)

// This file is the burst-granular datapath: ProcessBatch produces output
// byte-identical to the per-symbol Process, but consumes runs of
// match-impossible characters in bulk. Three mechanisms make that legal:
//
//   - A precomputed wake table over the symbol space classifies characters:
//     legacy compare anchors (first masked window position matches), rule
//     starters (characters that satisfy some rule's first step — the
//     program's starter set), and link RESET symbols (counted
//     during the scan so bulk runs need no per-character statistics pass).
//     Runs with no anchor or starter flow through as a single copy — the
//     "cut-through" path — with only bulk statistics, capture-ring and
//     running-CRC updates.
//
//   - The rule program's prefilter extends skip runs through starter
//     characters whose prefix partials provably die: the scan tracks every
//     viable prefix and only wakes the per-symbol FSM around prefilter hits
//     (rewound by the maximum prefix length so the exact executor verifies
//     the whole prefix) and around partials still viable when the scan must
//     stop (buffer end, or a legacy anchor interrupting it). A span the
//     scan clears holds no partial that could ever accept: any partial
//     starting before the clean boundary would have to complete before the
//     first hit — a contradiction — so it dies, and dead partials never
//     fire.
//
//   - The per-symbol FSM re-engages around candidate anchors: a legacy
//     anchor is clocked individually plus the WindowSize-1 characters after
//     it (a match completing later cannot involve the anchor), and rule
//     wakes hold the FSM for the returned span — after which the executor
//     being mid-match keeps bulkEligible false on its own. The FSM also
//     stays engaged while any dynamic condition — tainted FIFO slots
//     awaiting retransmission, a pending InjectNow, or an armed CRC
//     recompute on a corrupted packet — could make a pop or a compare
//     content-dependent.

// batchSpan is the wake-table index space: characters are classified by
// their low 10 bits, covering the 9-bit Myrinet link symbols and the 10-bit
// Fibre Channel code groups. Masks selecting higher bits (none of the real
// substrates do) disable the batch path rather than alias.
const batchSpan = 1024

// dcFlag is the D/C bit of a link character (bit 8).
const dcFlag = phy.Character(1) << 8

// Wake-table bits. wakeReset deliberately sits above the engaging bits so a
// character's reset count is wake>>2 whatever else it carries.
const (
	wakeLegacy uint8 = 1 << 0 // anchors the legacy compare window
	wakeStart  uint8 = 1 << 1 // can begin some rule's prefix
	wakeReset  uint8 = 1 << 2 // link RESET: counted, never engages
)

// batchPlan is the cached classification of the symbol space against the
// current register file and rule set.
type batchPlan struct {
	// ok gates the whole batch path: false when a compare mask selects bits
	// outside the index span, so classification by low bits would alias.
	ok bool
	// cmpAlways marks an all-don't-care compare window: every cycle matches,
	// so bulk runs advance the match counter instead of scanning.
	cmpAlways bool
	// anchorIdx is the first compare-window position with a nonzero mask
	// (valid only when !cmpAlways): the position whose masked compare the
	// wake table encodes.
	anchorIdx int
	// pf is the armed program's compiled prefilter, nil when no rules are
	// armed or the program compiled without a screen.
	pf   *rules.Prefilter
	wake [batchSpan]uint8
}

// rebuildPlan reclassifies the symbol space. Called lazily from ProcessBatch
// after Configure, SetMatchMode or a rule-set change marks the plan dirty.
func (e *Engine) rebuildPlan() {
	e.batchDirty = false
	e.plan = batchPlan{}
	p := &e.plan
	for i := 0; i < WindowSize; i++ {
		if e.cfg.CompareMask[i]&^CharMask(batchSpan-1) != 0 {
			return // mask selects bits the classification cannot see
		}
	}
	p.ok = true
	j := -1
	for i := 0; i < WindowSize; i++ {
		if e.cfg.CompareMask[i] != 0 {
			j = i
			break
		}
	}
	p.cmpAlways = j < 0
	p.anchorIdx = j
	var prog *rules.Program
	if e.ruleExec != nil {
		prog = e.ruleExec.Program()
		p.pf = prog.Prefilter()
	}
	for v := 0; v < batchSpan; v++ {
		var b uint8
		if j >= 0 && (phy.Character(v)^e.cfg.CompareData[j])&phy.Character(e.cfg.CompareMask[j]) == 0 {
			b |= wakeLegacy
		}
		if prog != nil && prog.Starter(uint16(v)) {
			b |= wakeStart
		}
		if phy.Character(v)&(dcFlag|0xFF) == LinkResetCode {
			b |= wakeReset
		}
		p.wake[v] = b
	}
}

// triggerArmed reports whether a compare match on the next cycle could fire
// the legacy corrupt logic.
func (e *Engine) triggerArmed() bool {
	switch e.cfg.Match {
	case MatchOn:
		return true
	case MatchOnce:
		return !e.onceDone
	}
	return false
}

// bulkEligible reports whether the dynamic state allows consuming skip runs
// in bulk right now. The plan handles the static (configuration) half; this
// is the per-run half.
func (e *Engine) bulkEligible() bool {
	if !e.plan.ok || e.injectNow || e.taint != 0 {
		return false
	}
	if e.cfg.RecomputeCRC && e.packetCorrupted {
		return false // a pop may substitute the recomputed CRC
	}
	if e.ruleExec != nil && !e.ruleExec.InStart() {
		return false // automaton mid-match: every symbol is consumed
	}
	if e.plan.cmpAlways && e.triggerArmed() {
		return false // every cycle matches and would trigger
	}
	return true
}

// entryGuard computes how many leading burst characters must be clocked
// per-symbol because a compare match completing on them would anchor on a
// character still in the shift register from before this call.
func (e *Engine) entryGuard() int {
	if !e.plan.ok || e.plan.cmpAlways {
		return 0
	}
	j := e.plan.anchorIdx
	g := 0
	for t := 0; t < WindowSize-1-j; t++ {
		// A match at burst index t places old window entry j+t+1 at the
		// anchor position.
		w := &e.window[j+t+1]
		if (w.ch^e.cfg.CompareData[j])&phy.Character(e.cfg.CompareMask[j]) == 0 {
			g = t + 1
		}
	}
	return g
}

// planScan classifies the head of a bulk-eligible span: chars[:clean] can
// neither anchor the legacy compare nor complete any rule's prefix — they
// flow through bulkRun as one copy, with resets their RESET-symbol count —
// and the hold characters after them must be clocked per-symbol before
// scanning may resume. hold is zero only when the whole span is clean.
func (e *Engine) planScan(chars []phy.Character) (clean, hold, resets int) {
	p := &e.plan
	w := &p.wake
	n := len(chars)
	i := 0
	for i < n {
		// Cut-through sprint: 16-wide blocks with no engaging character
		// (two independent 8-wide OR trees, one branch per block), then an
		// 8-wide tail.
		for i+16 <= n {
			or0 := w[chars[i]&(batchSpan-1)] | w[chars[i+1]&(batchSpan-1)] |
				w[chars[i+2]&(batchSpan-1)] | w[chars[i+3]&(batchSpan-1)] |
				w[chars[i+4]&(batchSpan-1)] | w[chars[i+5]&(batchSpan-1)] |
				w[chars[i+6]&(batchSpan-1)] | w[chars[i+7]&(batchSpan-1)]
			or1 := w[chars[i+8]&(batchSpan-1)] | w[chars[i+9]&(batchSpan-1)] |
				w[chars[i+10]&(batchSpan-1)] | w[chars[i+11]&(batchSpan-1)] |
				w[chars[i+12]&(batchSpan-1)] | w[chars[i+13]&(batchSpan-1)] |
				w[chars[i+14]&(batchSpan-1)] | w[chars[i+15]&(batchSpan-1)]
			or := or0 | or1
			if or&(wakeLegacy|wakeStart) != 0 {
				break
			}
			if or&wakeReset != 0 {
				resets += resetsIn(w, chars[i:i+16])
			}
			i += 16
		}
		for i+8 <= n {
			or := w[chars[i]&(batchSpan-1)] | w[chars[i+1]&(batchSpan-1)] |
				w[chars[i+2]&(batchSpan-1)] | w[chars[i+3]&(batchSpan-1)] |
				w[chars[i+4]&(batchSpan-1)] | w[chars[i+5]&(batchSpan-1)] |
				w[chars[i+6]&(batchSpan-1)] | w[chars[i+7]&(batchSpan-1)]
			if or&(wakeLegacy|wakeStart) != 0 {
				break
			}
			if or&wakeReset != 0 {
				resets += resetsIn(w, chars[i:i+8])
			}
			i += 8
		}
		if i >= n {
			break
		}
		b := w[chars[i]&(batchSpan-1)]
		if b&(wakeLegacy|wakeStart) == 0 {
			resets += int(b >> 2)
			i++
			continue
		}
		if b&wakeLegacy != 0 {
			return i, WindowSize, resets
		}
		// Rule starter. Without a prefilter the executor wakes here; with
		// one, track the viable prefixes and clean through dead partials.
		if p.pf == nil {
			return i, 1, resets
		}
		sc := p.pf.NewScanner()
		j := i
		live := true
		for j < n {
			c := chars[j]
			bj := w[c&(batchSpan-1)]
			if bj&wakeLegacy != 0 {
				// Legacy anchor with partials still viable: clean up to the
				// earliest live partial, then per-symbol through the
				// anchor's compare window.
				back := sc.Depth()
				clean = j - back
				resets -= resetsIn(w, chars[clean:j])
				return clean, back + WindowSize, resets
			}
			resets += int(bj >> 2)
			ev := sc.Step(uint16(c))
			j++
			if ev == rules.ScanHit {
				// Rewind so the exact executor sees the longest possible
				// completing prefix; the rewound characters' resets move to
				// the per-symbol side.
				clean = j - p.pf.MaxLen()
				if clean < 0 {
					clean = 0
				}
				resets -= resetsIn(w, chars[clean:j])
				return clean, j - clean, resets
			}
			if ev == rules.ScanDead {
				live = false
				break
			}
		}
		if live {
			// Viable partials at the span's end: hold them back so a prefix
			// straddling the call boundary is verified per-symbol.
			back := sc.Depth()
			clean = n - back
			resets -= resetsIn(w, chars[clean:])
			return clean, back, resets
		}
		i = j
	}
	return n, 0, resets
}

// resetsIn counts RESET symbols via the wake table.
func resetsIn(w *[batchSpan]uint8, chars []phy.Character) int {
	r := 0
	for _, c := range chars {
		r += int(w[c&(batchSpan-1)] >> 2)
	}
	return r
}

// ProcessBatch clocks the engine over a burst and returns the characters
// released downstream, exactly as Process would, but burst-granular: scanned
// clean runs bypass the per-symbol FSM. The returned slice is the same
// reused scratch buffer Process uses, valid until the next call of either
// method.
func (e *Engine) ProcessBatch(chars []phy.Character) []phy.Character {
	out := e.procOut[:0]
	if e.batchDirty {
		e.rebuildPlan()
	}
	guard := e.entryGuard()
	i, n := 0, len(chars)
	for i < n {
		if guard > 0 || !e.bulkEligible() {
			c := chars[i]
			if e.plan.ok && e.plan.wake[c&(batchSpan-1)]&wakeLegacy != 0 {
				// Legacy anchor: it plus the next WindowSize-1 characters
				// stay per-symbol. Rule starters need no guard re-arm: the
				// executor leaves its start configuration, which pins
				// bulkEligible false until the automaton settles.
				guard = WindowSize
			}
			out = e.stepOne(c, out)
			i++
			if guard > 0 {
				guard--
			}
			continue
		}
		clean, hold, resets := e.planScan(chars[i:])
		if clean > 0 {
			out = e.bulkRun(chars[i:i+clean], out, resets)
			i += clean
		}
		guard = hold
	}
	e.procOut = out
	return out
}

// bulkRun consumes a run of characters proven unable to match or trigger:
// a single copy through the pipeline with statistics, capture, CRC and
// FIFO-tail updates, no per-symbol FSM. Preconditions (owned by
// ProcessBatch): bulkEligible, planScan cleared the run (resets is its
// RESET-symbol count), and the entry/anchor guard has expired.
func (e *Engine) bulkRun(seg []phy.Character, out []phy.Character, resets int) []phy.Character {
	m := len(seg)
	e.chars += uint64(m)
	e.resetsSeen += uint64(resets)
	if e.ruleExec != nil {
		e.ruleExec.SkipQuiet(m)
	}
	if e.plan.cmpAlways {
		// All-don't-care window: every cycle's compare reports a match
		// (and the eligibility gate has proven none can trigger).
		e.matches += uint64(m)
	}
	e.capture.ObserveBatch(seg)

	// Pops: the logical stream is the queued characters followed by seg;
	// output takes its prefix until the pipeline is back at slack depth.
	count0 := e.count
	pops := count0 + m - e.slack
	if pops < 0 {
		pops = 0
	}
	popFifo := pops
	if popFifo > count0 {
		popFifo = count0
	}
	for k := 0; k < popFifo; k++ {
		c := e.fifo[e.head].ch
		e.head = (e.head + 1) & (len(e.fifo) - 1)
		out = append(out, c)
		if c.IsData() {
			e.runningCRC = bitstream.CRC8Update(e.runningCRC, c.Byte())
		} else {
			e.runningCRC = 0
			e.packetCorrupted = false
		}
	}
	e.count = count0 - popFifo
	popSeg := pops - popFifo
	if popSeg > 0 {
		// Characters that enter and leave within this run: cut-through.
		out = append(out, seg[:popSeg]...)
		e.runningCRC, e.packetCorrupted = crcAdvance(e.runningCRC, e.packetCorrupted, seg[:popSeg])
	}

	// FIFO tail: only the kept suffix of seg is materialized in the ring —
	// at most slack slots regardless of run length.
	for k := popSeg; k < m; k++ {
		pos := (e.head + e.count) & (len(e.fifo) - 1)
		e.fifo[pos] = fifoEntry{ch: seg[k]}
		e.count++
	}

	// Compare shift register: the last WindowSize stream characters. Kept
	// suffix slots are live (proven by the slack >= WindowSize invariant),
	// so recorded positions stay valid for later corrupt cycles.
	if m >= WindowSize {
		for i := 0; i < WindowSize; i++ {
			d := WindowSize - 1 - i
			e.window[i] = winEntry{
				ch:  seg[m-1-d],
				pos: (e.head + e.count - 1 - d) & (len(e.fifo) - 1),
			}
		}
	} else {
		copy(e.window[:], e.window[m:])
		for i := 0; i < m; i++ {
			d := m - 1 - i
			e.window[WindowSize-m+i] = winEntry{
				ch:  seg[i],
				pos: (e.head + e.count - 1 - d) & (len(e.fifo) - 1),
			}
		}
	}
	return out
}

// crcAdvance runs the per-packet CRC state machine over a popped run:
// data bytes extend the running CRC (slicing-by-8 on all-data blocks, with a
// 4-wide then per-character tail), control symbols reset it and clear the
// corrupted-packet latch, exactly as popOne does per character.
func crcAdvance(crc byte, pc bool, seg []phy.Character) (byte, bool) {
	i, n := 0, len(seg)
	for i < n {
		for i+8 <= n {
			c0, c1, c2, c3 := seg[i], seg[i+1], seg[i+2], seg[i+3]
			c4, c5, c6, c7 := seg[i+4], seg[i+5], seg[i+6], seg[i+7]
			if c0&c1&c2&c3&c4&c5&c6&c7&dcFlag == 0 {
				break // a control symbol inside the block
			}
			crc = bitstream.CRC8Update8(crc,
				byte(c0), byte(c1), byte(c2), byte(c3),
				byte(c4), byte(c5), byte(c6), byte(c7))
			i += 8
		}
		for i+4 <= n {
			c0, c1, c2, c3 := seg[i], seg[i+1], seg[i+2], seg[i+3]
			if c0&c1&c2&c3&dcFlag == 0 {
				break // a control symbol inside the block
			}
			crc = bitstream.CRC8Update4(crc, byte(c0), byte(c1), byte(c2), byte(c3))
			i += 4
		}
		if i >= n {
			break
		}
		if c := seg[i]; c.IsData() {
			crc = bitstream.CRC8Update(crc, c.Byte())
		} else {
			crc = 0
			pc = false
		}
		i++
	}
	return crc, pc
}
