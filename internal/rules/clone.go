package rules

// CloneInto copies the executor's run state — automaton position, counters,
// once latches — into e2, whose lane and counter arrays it refills, sharing
// the compiled Program, which is immutable after Compile. The program's
// prefilter travels with it: the screen's tables are compile-time constants
// and its scan state is a per-StepBatch stack value (Scanner), never live
// across calls, so a fork needs no prefilter run state beyond the automaton
// position already copied here. Forked campaigns use this to duplicate a
// warmed injector without recompiling.
func (e *Executor) CloneInto(e2 *Executor) {
	lanes, matches, fires := e2.lanes, e2.matches, e2.fires
	*e2 = *e // p (shared), dfa, symbols, onceFired, quiet (value array)
	e2.lanes = append(lanes[:0], e.lanes...)
	e2.matches = append(matches[:0], e.matches...)
	e2.fires = append(fires[:0], e.fires...)
}
