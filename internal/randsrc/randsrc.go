// Package randsrc is a rand.Source64 whose draws are identical to
// math/rand's own source — rand.New(randsrc.New(s)) and
// rand.New(rand.NewSource(s)) yield the same Int63, Uint64, Float64,
// NormFloat64, Intn and Perm streams for every seed — but whose Seed
// is several times cheaper.
//
// math/rand seeds its additive lagged Fibonacci generator (607 words,
// tap 273) by running the Park–Miller LCG x ← 48271·x mod (2³¹−1)
// 20 + 3·607 steps, one serial division chain per Seed. Step k of that
// chain is simply seed·48271ᵏ mod (2³¹−1), so Seed here multiplies the
// seed by a precomputed power table and reduces each product with the
// Mersenne fold — 1821 independent multiply-and-fold steps with no
// division and no dependency between them. The generator step itself
// is math/rand's, unchanged.
//
// Every stream in this repository is part of the determinism contract
// (golden bytes, batch ≡ singles, worker-count equivalence), so the
// package's test pins the equivalence draw for draw against math/rand.
package randsrc

// Generator constants, as in math/rand's rng.go.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedA is the seeding LCG's multiplier; seedSkip the LCG steps
	// math/rand discards before the first state word.
	seedA    = 48271
	seedSkip = 20
	// zeroSeed replaces a seed ≡ 0 mod 2³¹−1, the LCG's fixed point.
	zeroSeed = 89482311
)

// powers[i][k] is seedA^(seedSkip+1+3i+k) mod 2³¹−1: state word i is
// built from LCG steps seedSkip+1+3i … seedSkip+3+3i.
var powers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 0; k < seedSkip; k++ {
		x = x * seedA % int32max
	}
	for i := range p {
		for k := range p[i] {
			x = x * seedA % int32max
			p[i][k] = x
		}
	}
	return p
}()

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹−1 without a division:
// 2³¹ ≡ 1, so the high bits fold onto the low ones.
func mulmod(a, b uint64) uint64 {
	p := a * b              // < 2⁶²
	r := p&int32max + p>>31 // < 2³²
	r = r&int32max + r>>31  // ≤ 2³¹
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Source is math/rand's additive lagged Fibonacci generator with
// table-driven seeding. The zero value is unseeded; call Seed before
// drawing. A Source is not safe for concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &powers[i]
		u := int64(mulmod(x, p[0])) << 40
		u ^= int64(mulmod(x, p[1])) << 20
		u ^= int64(mulmod(x, p[2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
