package rules

import "math/bits"

// ScanEvent classifies one prefilter step.
type ScanEvent uint8

const (
	// ScanLive: at least one prefix partial is still viable.
	ScanLive ScanEvent = iota
	// ScanDead: no viable partial remains — every symbol consumed so far,
	// including this one, is clean (the stepped symbol started nothing).
	ScanDead
	// ScanHit: some prefix completed on this symbol; the exact executor
	// must verify from MaxLen()-1 symbols back.
	ScanHit
)

// Scanner is a resumable prefilter evaluation: a value type so callers —
// Executor.StepBatch and the injector's planScan — keep it on the stack and
// interleave stepping with their own per-symbol classification. The zero
// Scanner is not usable; obtain one from NewScanner.
type Scanner struct {
	pf *Prefilter
	d  [pfMaxWords]uint64 // shift-and viable positions
}

// NewScanner returns a fresh scan with no viable partials.
func (pf *Prefilter) NewScanner() Scanner { return Scanner{pf: pf} }

// Step consumes one symbol. Search is unanchored: every step also tries to
// begin each prefix, so callers never need to restart the scanner on
// starter symbols.
func (s *Scanner) Step(sym uint16) ScanEvent {
	sym &= SymbolMask
	pf := s.pf
	// Multi-word shift-and: D' = ((D<<1) | I) & B[sym]. A bit shifted past
	// a prefix's last position lands on the next prefix's first position,
	// which I re-injects every step anyway, so no boundary masking.
	row := pf.rows[int(sym)*pf.words:]
	var carry, live, hit uint64
	for w := 0; w < pf.words; w++ {
		d := s.d[w]
		nd := (d<<1 | carry | pf.ini[w]) & row[w]
		carry = d >> 63
		s.d[w] = nd
		live |= nd
		hit |= nd & pf.hitm[w]
	}
	if hit != 0 {
		return ScanHit
	}
	if live != 0 {
		return ScanLive
	}
	return ScanDead
}

// Depth reports the deepest viable partial in symbols consumed: how far back
// a caller must hold symbols for per-symbol verification when it stops
// scanning with partials still live (buffer end, or a legacy compare anchor
// interrupting the scan).
func (s *Scanner) Depth() int {
	pf := s.pf
	max := 0
	for w := 0; w < pf.words; w++ {
		for d := s.d[w]; d != 0; d &= d - 1 {
			if dep := int(pf.depth[w*64+bits.TrailingZeros64(d)]); dep > max {
				max = dep
			}
		}
	}
	return max
}

// scanClean runs p's prefilter over a run and splits it: syms[:clean]
// provably cannot complete any rule's registered prefix — an executor in its
// start configuration may consume them with SkipQuiet — and the next hold
// symbols (zero only when the whole run is clean) must be stepped exactly.
// The split accounts for hits (rewound by MaxLen()-1 so the verifying
// executor sees the whole prefix) and for partials still viable at the end
// of the run (held back so a prefix straddling the call boundary is verified
// per-symbol). Non-starters need no scanner: they begin no prefix.
func (p *Program) scanClean(syms []uint16) (clean, hold int) {
	pf := p.prefilter
	n := len(syms)
	i := 0
	for i < n {
		if !p.Starter(syms[i]) {
			i++
			continue
		}
		sc := pf.NewScanner()
		j := i
		live := true
		for j < n {
			ev := sc.Step(syms[j])
			j++
			if ev == ScanHit {
				clean = j - pf.maxLen
				if clean < 0 {
					clean = 0
				}
				return clean, j - clean
			}
			if ev == ScanDead {
				live = false
				break
			}
		}
		if live {
			d := sc.Depth()
			return n - d, d
		}
		i = j
	}
	return n, 0
}
