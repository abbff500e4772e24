package model

// SpareLen reports how many recycled coroutines m holds for its undo
// log, for the external undo tests.
func SpareLen(m *Machine) int { return len(m.spare) }
