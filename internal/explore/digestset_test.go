package explore

import (
	"math/rand"
	"testing"
)

// TestDigestSetMatchesMap checks digestSet against a map reference on
// the digests that stress it: random ones, the all-zero digest (kept
// outside the table), digests sharing k[0] (so sharing a home slot)
// that differ only in k[1], and digests differing only in the high
// bits of k[0]. Every add's freshness and the count must match the
// map's after each insert, across several growth boundaries.
func TestDigestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys [][2]uint64
	for i := 0; i < 3000; i++ {
		switch i % 4 {
		case 0:
			keys = append(keys, [2]uint64{rng.Uint64(), rng.Uint64()})
		case 1:
			keys = append(keys, [2]uint64{0x5eed, uint64(rng.Intn(500))})
		case 2:
			keys = append(keys, [2]uint64{uint64(rng.Intn(500)) << 52, 7})
		case 3:
			keys = append(keys, [2]uint64{})
		}
	}
	// Re-add a random earlier key now and then so duplicates land on
	// tables of every size.
	for i := 0; i < 1000; i++ {
		keys = append(keys, keys[rng.Intn(len(keys))])
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var s digestSet
	ref := map[[2]uint64]bool{}
	grows := 0
	for i, k := range keys {
		size := len(s.slots)
		want := !ref[k]
		ref[k] = true
		if got := s.add(k); got != want {
			t.Fatalf("add #%d of %x: fresh = %v, want %v", i, k, got, want)
		}
		if s.len() != len(ref) {
			t.Fatalf("after add #%d: len = %d, want %d", i, s.len(), len(ref))
		}
		if len(s.slots) != size {
			grows++
		}
	}
	if grows < 5 {
		t.Errorf("the set grew %d times, want ≥ 5 growth boundaries crossed", grows)
	}
	for k := range ref {
		if s.add(k) {
			t.Fatalf("%x reported fresh after it was added", k)
		}
	}
}

// TestDigestSetReAddAllocs: adding a present digest never allocates,
// also when the table sits at its growth threshold.
func TestDigestSetReAddAllocs(t *testing.T) {
	var s digestSet
	for i := uint64(1); i <= 7; i++ { // 7 of 8 slots: the 7/8 threshold
		s.add([2]uint64{i, i})
	}
	s.add([2]uint64{})
	if allocs := testing.AllocsPerRun(100, func() {
		s.add([2]uint64{3, 3})
		s.add([2]uint64{})
	}); allocs != 0 {
		t.Errorf("re-adding present digests allocates %.1f times, want 0", allocs)
	}
}

// TestDigestSetTableSize: the table is always the smallest power of
// two (at least 8 slots) that holds its digests at no more than 7/8
// load, so it never holds more than twice the slots a 7/8 load needs
// and never runs fuller than 7/8.
func TestDigestSetTableSize(t *testing.T) {
	var s digestSet
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		s.add([2]uint64{rng.Uint64() | 1, rng.Uint64()})
		need := minDigestSlots
		for s.n > need-need/8 {
			need *= 2
		}
		if len(s.slots) != need {
			t.Fatalf("%d digests in %d slots, want %d", s.n, len(s.slots), need)
		}
	}
}
