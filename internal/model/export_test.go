package model

import (
	"fmt"
	"strings"
)

// SpareLen reports how many recycled coroutines m holds for its undo
// log, for the external undo tests.
func SpareLen(m *Machine) int { return len(m.spare) }

// FmtStateKey renders m's state key with fmt: the reference encoding
// StateKey must reproduce byte for byte.
func FmtStateKey(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "store=%v owners=%v status=%v", m.store, m.owner, m.status)
	if len(m.chans) > 0 {
		vals := make([][]int64, len(m.chans))
		closed := make([]bool, len(m.chans))
		for i := range m.chans {
			ch := &m.chans[i]
			vals[i] = make([]int64, 0, ch.count)
			for k := int32(0); k < ch.count; k++ {
				vals[i] = append(vals[i], ch.buf[(ch.head+k)%int32(len(ch.buf))])
			}
			closed[i] = ch.closed
		}
		fmt.Fprintf(&b, " chans=%v closed=%v", vals, closed)
	}
	if len(m.failures) > 0 {
		fmt.Fprintf(&b, " failures=%v", m.sortedFailures())
	}
	return b.String()
}
