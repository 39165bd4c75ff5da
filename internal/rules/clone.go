package rules

// Clone copies the executor's run state — automaton position, counters,
// once latches — sharing the compiled Program, which is immutable after
// Compile. The program's prefilter travels with it: the screen's tables are
// compile-time constants and its scan state is a per-StepBatch stack value
// (Scanner), never live across calls, so a fork needs no prefilter run state
// beyond the automaton position already copied here. Forked campaigns use
// this to duplicate a warmed injector without recompiling.
func (e *Executor) Clone() *Executor {
	e2 := new(Executor)
	*e2 = *e // p (shared), dfa, symbols, onceFired, quiet (value array)
	if e.lanes != nil {
		e2.lanes = append([]uint64(nil), e.lanes...)
	}
	e2.matches = append([]uint64(nil), e.matches...)
	e2.fires = append([]uint64(nil), e.fires...)
	return e2
}
