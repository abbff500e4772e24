package explore

import "math/rand"

// walkSource is a rand.Source64 whose output is bit for bit that of
// rand.NewSource(seed), but whose Seed is O(1). The samplers re-seed
// their rng once per walk and most walks draw a few dozen values, so
// math/rand's Seed — 1,841 Park–Miller steps filling a 607-entry
// register — would dominate a short walk's cost.
//
// math/rand's generator is an additive lagged-Fibonacci register:
// draw k adds vec[tap] into vec[feed] and returns the sum. Seeding
// fills entry i with x(3i+21)<<40 ^ x(3i+22)<<20 ^ x(3i+23) ^ cooked[i],
// where x(n) = 48271ⁿ·x0 mod (2³¹−1) is the Park–Miller orbit of the
// normalised seed x0. The first walkTap draws only ever read entries
// still in that seeded state, so walkSource computes those operands in
// closed form from x0 and writes nothing at Seed time; draw walkTap+1
// first fills every entry the lazy draws left untouched, then runs the
// ordinary recurrence.
//
// The zero value draws the same stream as rand.NewSource(0).
type walkSource struct {
	x0    uint64 // normalised seed, in [1, walkM); 0 means seed 0
	drawn int    // draws since Seed, counted up to walkTap+1
	tap   int
	feed  int
	vec   [walkLen]int64
}

const (
	walkLen      = 607       // math/rand's register length
	walkTap      = 273       // math/rand's tap distance
	walkM        = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	walkZeroSeed = 89482311  // math/rand's substitute for seed 0
)

// walkPow[i][j] = 48271^(3i+21+j) mod walkM: the orbit offsets of the
// three Park–Miller values folded into register entry i.
var walkPow = func() (p [walkLen][3]uint32) {
	x := uint64(1)
	for n := 1; n < 3*walkLen+21; n++ {
		x = x * 48271 % walkM
		if n >= 21 {
			p[(n-21)/3][(n-21)%3] = uint32(x)
		}
	}
	return p
}()

// walkCooked is math/rand's per-entry seeding mask, recovered rather
// than copied: rand.NewSource(1)'s first walkLen draws overwrite every
// register entry exactly once, so undoing them newest first (each draw
// added its tap into its feed) yields the seeded register, and
// XOR-ing out seed 1's orbit leaves the mask.
var walkCooked = func() (cooked [walkLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var vec [walkLen]int64
	tap, feed := 0, walkLen-walkTap
	for range walkLen {
		tap = (tap + walkLen - 1) % walkLen
		feed = (feed + walkLen - 1) % walkLen
		vec[feed] = int64(src.Uint64())
	}
	for range walkLen {
		vec[feed] -= vec[tap]
		tap = (tap + 1) % walkLen
		feed = (feed + 1) % walkLen
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ walkOrbit(1, i)
	}
	return cooked
}()

// mulModM returns a·b mod walkM for a, b < 2³¹, by Mersenne folding.
func mulModM(a, b uint64) uint64 {
	p := a * b
	r := p&walkM + p>>31
	r = r&walkM + r>>31
	if r >= walkM {
		r -= walkM
	}
	return r
}

// walkOrbit is register entry i's seeded value for normalised seed x0,
// before the cooked mask.
func walkOrbit(x0 uint64, i int) int64 {
	p := &walkPow[i]
	return int64(mulModM(uint64(p[0]), x0)<<40 ^ mulModM(uint64(p[1]), x0)<<20 ^ mulModM(uint64(p[2]), x0))
}

// seeded is register entry i as math/rand's Seed would have left it.
func (s *walkSource) seeded(i int) int64 { return walkOrbit(s.x0, i) ^ walkCooked[i] }

// Seed implements rand.Source, normalising seed exactly as math/rand
// does.
func (s *walkSource) Seed(seed int64) {
	seed %= walkM
	if seed < 0 {
		seed += walkM
	}
	if seed == 0 {
		seed = walkZeroSeed
	}
	s.x0 = uint64(seed)
	s.drawn = 0
}

// Int63 implements rand.Source.
func (s *walkSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64.
func (s *walkSource) Uint64() uint64 {
	if s.drawn < walkTap {
		if s.x0 == 0 {
			s.x0 = walkZeroSeed
		}
		// Draw k reads feed 334−k and tap 607−k, both still seeded.
		s.drawn++
		f, t := walkLen-walkTap-s.drawn, walkLen-s.drawn
		x := s.seeded(f) + s.seeded(t)
		s.vec[f] = x
		return uint64(x)
	}
	if s.drawn == walkTap {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += walkLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += walkLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill ends the lazy window: it seeds every entry the first walkTap
// draws did not write (they wrote feeds walkLen−2·walkTap through
// walkLen−walkTap−1) and positions tap and feed where math/rand's would
// be.
func (s *walkSource) fill() {
	for i := range walkLen - 2*walkTap {
		s.vec[i] = s.seeded(i)
	}
	for i := walkLen - walkTap; i < walkLen; i++ {
		s.vec[i] = s.seeded(i)
	}
	s.tap, s.feed = walkLen-walkTap, walkLen-2*walkTap
	s.drawn++
}
