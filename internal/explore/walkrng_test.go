package explore

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// walkEdgeSeeds are the seeds where math/rand's normalisation branches:
// zero and its substitute, the modulus and its neighbours, and the
// int64 extremes.
var walkEdgeSeeds = []int64{
	0, 1, -1, walkM, -walkM, walkM - 1, walkM + 1,
	math.MaxInt64, math.MinInt64, walkZeroSeed,
}

// walkCompareDraws crosses the lazy window (walkTap draws), the fill
// and the register wrap (walkLen draws) more than twice.
const walkCompareDraws = 1500

// checkWalkSource compares draws Uint64 values of a re-seeded
// walkSource against rand.NewSource(seed).
func checkWalkSource(t *testing.T, s *walkSource, seed int64, draws int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	s.Seed(seed)
	for k := 1; k <= draws; k++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, g, w)
		}
	}
}

// TestWalkSourceMatchesMathRand pins walkSource to math/rand's stream:
// raw draws for the edge seeds and the samplers' mixWalkSeed outputs
// (one source re-seeded throughout, as the samplers use it), the
// rand.Rand helpers the samplers call on top, and that a short walk's
// Seed and draws allocate nothing.
func TestWalkSourceMatchesMathRand(t *testing.T) {
	var s walkSource
	for _, seed := range walkEdgeSeeds {
		checkWalkSource(t, &s, seed, walkCompareDraws)
	}
	for i := range 2000 {
		draws := walkCompareDraws
		if i%10 != 0 {
			draws = 2*walkTap + i%64 // cheaper, still past the fill
		}
		checkWalkSource(t, &s, mixWalkSeed(int64(i/100), i), draws)
	}

	var zero walkSource
	if g, w := zero.Int63(), rand.NewSource(0).Int63(); g != w {
		t.Fatalf("zero value draws %d, rand.NewSource(0) %d", g, w)
	}

	got, want := rand.New(&walkSource{}), rand.New(rand.NewSource(0))
	for i := range 200 {
		seed := mixWalkSeed(7, i)
		got.Seed(seed)
		want.Seed(seed)
		for n := 1; n <= 40; n++ {
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand %d", seed, n, g, w)
			}
		}
		if g, w := got.Perm(9), want.Perm(9); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, g, w)
		}
		for range 300 {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 = %v, math/rand %v", seed, g, w)
			}
		}
	}

	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		got.Seed(mixWalkSeed(seed, 0))
		for range 40 {
			got.Intn(3)
		}
	}); a != 0 {
		t.Fatalf("Seed plus 40 Intn draws allocated %.1f times, want 0", a)
	}
}

// FuzzWalkSource checks walkSource against math/rand for arbitrary
// seeds and draw counts.
func FuzzWalkSource(f *testing.F) {
	for _, seed := range walkEdgeSeeds {
		f.Add(seed, uint16(walkCompareDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var s walkSource
		checkWalkSource(t, &s, seed, int(draws))
	})
}
