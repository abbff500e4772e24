// Package vclock implements fixed-width vector clocks, the ordering
// backbone for the happens-before relations computed by this repository.
//
// A VC maps thread identifiers (small dense integers) to logical times.
// The zero-length VC is a valid clock that is ≤ every other clock; all
// operations tolerate operands of different lengths by treating missing
// entries as zero.
//
// # Immutable-after-publication discipline
//
// The mutating operations (Set, Inc, Join) exist for *building* a clock
// that no one else can see yet. Once a clock is published — stored into
// shared state, returned to a caller, or captured by a snapshot — it
// must never be mutated again. Under that discipline published clocks
// are shared by reference, never deep-copied: the happens-before
// tracker's slots and the per-event result clocks it returns alias the
// same immutable backing arrays. Clone remains available for the rare consumer that
// genuinely needs a private mutable copy.
package vclock

import "fmt"

// VC is a vector clock. Index i holds the logical time of thread i.
// The zero value (nil) is the bottom clock.
type VC []int32

// New returns a zeroed clock with capacity for n threads.
func New(n int) VC { return make(VC, n) }

// Get returns the component for thread t, or 0 if t is out of range.
func (v VC) Get(t int) int32 {
	if t < 0 || t >= len(v) {
		return 0
	}
	return v[t]
}

// Set assigns component t, growing the clock if necessary, and returns
// the (possibly reallocated) clock.
func (v VC) Set(t int, x int32) VC {
	v = v.grow(t + 1)
	v[t] = x
	return v
}

// Inc increments component t by one, growing if necessary, and returns
// the (possibly reallocated) clock.
func (v VC) Inc(t int) VC {
	v = v.grow(t + 1)
	v[t]++
	return v
}

func (v VC) grow(n int) VC {
	if len(v) >= n {
		return v
	}
	w := make(VC, n)
	copy(w, v)
	return w
}

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	w := make(VC, len(v))
	copy(w, v)
	return w
}

// Join sets v to the component-wise maximum of v and o, returning the
// (possibly reallocated) result. o is not modified.
func (v VC) Join(o VC) VC {
	v = v.grow(len(o))
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
	return v
}

// Leq reports whether v ≤ o component-wise (the happens-before-or-equal
// order on clocks).
func (v VC) Leq(o VC) bool {
	for i, x := range v {
		if x > o.Get(i) {
			return false
		}
	}
	return true
}

// Less reports whether v ≤ o and v ≠ o.
func (v VC) Less(o VC) bool { return v.Leq(o) && !o.Leq(v) }

// Equal reports whether v and o denote the same clock (missing entries
// count as zero).
func (v VC) Equal(o VC) bool { return v.Leq(o) && o.Leq(v) }

// Concurrent reports whether neither v ≤ o nor o ≤ v.
func (v VC) Concurrent(o VC) bool { return !v.Leq(o) && !o.Leq(v) }

// Hash folds the clock into a 64-bit FNV-1a digest. Trailing zero
// components are skipped so that equal clocks of different lengths hash
// identically.
func (v VC) Hash() uint64 {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < n; i++ {
		x := uint32(v[i])
		h ^= uint64(x & 0xff)
		h *= prime
		h ^= uint64((x >> 8) & 0xff)
		h *= prime
		h ^= uint64((x >> 16) & 0xff)
		h *= prime
		h ^= uint64(x >> 24)
		h *= prime
	}
	return h
}

// String renders the clock as e.g. "[1 0 3]".
func (v VC) String() string { return fmt.Sprintf("%v", []int32(v)) }
