package rules

// CloneInto copies the executor's run state — automaton position, counters,
// once latches — into e2, whose lane and counter arrays it refills, and
// runs it on p: the fork's own program, bound to the same automaton and
// rules as e's. The automaton is shared, being immutable after Compile;
// its prefilter travels with it: the screen's tables are compile-time
// constants and its scan state is a per-StepBatch stack value (Scanner),
// never live across calls, so a fork needs no prefilter run state beyond
// the automaton position already copied here. Forked campaigns use this to
// duplicate a warmed injector without recompiling.
func (e *Executor) CloneInto(e2 *Executor, p *Program) {
	lanes, counts := e2.lanes, e2.counts
	*e2 = *e // dfa, symbols, onceFired
	e2.p = p
	e2.lanes = append(lanes[:0], e.lanes...)
	e2.counts = append(counts[:0], e.counts...)
}
