// Package detrand holds the deterministic randomness every simulated
// measurement draws from: a math/rand-compatible source that costs
// nothing to re-seed, and the FNV-1a + splitmix64 key derivation that
// turns a measurement's identity into its seed or into a uniform draw.
//
// Source produces exactly the stream of rand.NewSource for the same
// seed. math/rand's seeding fills a 607-word register by stepping a
// Lehmer LCG, x ← 48271·x mod (2³¹−1), three steps per word after a
// 20-step warm-up, and XORs each word with a fixed table:
//
//	word[i] = x₍₂₁₊₃ᵢ₎<<40 ^ x₍₂₂₊₃ᵢ₎<<20 ^ x₍₂₃₊₃ᵢ₎ ^ rngCooked[i]
//
// where xₙ = 48271ⁿ·seed mod (2³¹−1). With the powers 48271^(21+3i)
// precomputed, any word is three modular multiplications away, so
// Source computes a word only when a draw first reads it and Seed only
// forgets which words it has computed. A simulated ping reads a few
// dozen words; rand.NewSource builds all 607 (≈ 1 800 LCG steps and a
// 4.9 KB allocation) every time.
//
// The package is a stdlib-only leaf.
package detrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lcgMod   = 1<<31 - 1 // the Lehmer LCG's prime modulus
	lcgMul   = 48271
	zeroSeed = 89482311 // what math/rand seeds with when the seed reduces to 0
)

// powers[i] is 48271^(21+3i) mod (2³¹−1): the multiplier that takes the
// seed to the first of the three LCG states behind register word i.
var powers = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lcgMul % lcgMod
	}
	const cube = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	for i := range p {
		p[i] = x
		x = x * cube % lcgMod
	}
	return p
}()

// Source is a lazily seeded math/rand source: for every seed it yields
// the same Int63 and Uint64 sequence as rand.NewSource(seed). It
// implements rand.Source64, so rand.Rand takes the same Uint64 path for
// it as for math/rand's own source. Like that source it is not safe for
// concurrent use; keep one per goroutine and re-Seed it.
type Source struct {
	tap, feed int
	seed      uint64 // the seed reduced into [1, 2³¹−1)
	// valid marks the register words computed since the last Seed.
	valid [(rngLen + 63) / 64]uint64
	vec   [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand over a Source seeded with seed: the drop-in
// for rand.New(rand.NewSource(seed)) whose Seed method is cheap.
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed resets the source to the state rand.NewSource(seed) starts in.
// It reduces the seed exactly as math/rand does (mod 2³¹−1, negatives
// wrapped, zero replaced) and computes no register word.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.valid = [len(s.valid)]uint64{}
}

// word returns register word i, computing its seeded value by jump-ahead
// on first use since the last Seed.
func (s *Source) word(i int) int64 {
	bit := uint64(1) << (i & 63)
	if s.valid[i>>6]&bit == 0 {
		x := powers[i] * s.seed % lcgMod
		u := int64(x) << 40
		x = x * lcgMul % lcgMod
		u ^= int64(x) << 20
		x = x * lcgMul % lcgMod
		u ^= int64(x)
		s.vec[i] = u ^ rngCooked[i]
		s.valid[i>>6] |= bit
	}
	return s.vec[i]
}

// Uint64 returns the next value of the additive lagged-Fibonacci stream,
// as math/rand's source does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }
