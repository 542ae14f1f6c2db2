// Package prng is math/rand's PRNG source with a faster Seed. Source is the
// same additive lagged-Fibonacci generator as the one rand.NewSource returns
// (a 607-word register with a tap at 273), so rand.New(prng.New(seed)) draws
// exactly what rand.New(rand.NewSource(seed)) draws, through every method of
// rand.Rand.
//
// math/rand seeds the register from a Lehmer sequence x_k = seed·48271^k mod
// (2³¹−1), walked one step at a time: 1 841 dependent steps. Source.Seed reads
// each x_k it needs as one multiplication of the seed by a precomputed power,
// so the steps are independent and the seed costs a fraction of the walk.
package prng

import "math/rand"

const (
	regLen = 607 // register length
	regTap = 273 // tap distance
	mask63 = 1<<63 - 1

	lehmerMod = 1<<31 - 1 // a Mersenne prime
	lehmerMul = 48271
	// warmup is how many Lehmer values math/rand discards before it fills
	// the register, three values per word.
	warmup = 20
	// zeroSeed replaces a seed that is 0 modulo lehmerMod, as math/rand does.
	zeroSeed = 89482311
)

var (
	// powers[i] holds 48271^k mod (2³¹−1) for the three Lehmer steps k that
	// make register word i.
	powers [regLen][3]uint32
	// cooked is math/rand's rngCooked table: the constant each register word
	// is XORed with after its Lehmer part.
	cooked [regLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < warmup+3*regLen; k++ {
		p = p * lehmerMul % lehmerMod
		if j := k - warmup; j >= 0 {
			powers[j/3][j%3] = uint32(p)
		}
	}
	cooked = cookedFrom(rand.NewSource(1).(rand.Source64))
}

// cookedFrom recovers the cooked table from a source freshly seeded with 1:
// its first regLen draws give back its seeded register v by subtraction, and
// v XOR the Lehmer part of seed 1 is the table. Draw k (from 1) adds
// vec[tap] to vec[feed] with tap = regLen−k and feed = regLen−regTap−k mod
// regLen, so it reads a word an earlier draw k−regTap wrote, or an original
// one.
func cookedFrom(src rand.Source64) [regLen]int64 {
	const feed0 = regLen - regTap
	var o [regLen + 1]int64 // o[k] is draw k
	for k := 1; k <= regLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [regLen]int64
	for k := feed0 + 1; k <= regLen; k++ { // feed wrapped: original word, tap written by draw k−regTap
		v[regLen+feed0-k] = o[k] - o[k-regTap]
	}
	for k := 1; k <= regTap; k++ { // both original, the tap word recovered above
		v[feed0-k] = o[k] - v[regLen-k]
	}
	for k := regTap + 1; k <= feed0; k++ { // tap written by draw k−regTap
		v[feed0-k] = o[k] - o[k-regTap]
	}
	var c [regLen]int64
	lehmerWords(&c, 1)
	for i := range c {
		c[i] ^= v[i]
	}
	return c
}

// Source is math/rand's PRNG source. The zero value is not seeded; use New or
// Seed.
type Source struct {
	tap, feed int
	vec       [regLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in. It allocates
// nothing.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, regLen-regTap
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	lehmerWords(&s.vec, uint64(seed))
	for i := range s.vec {
		s.vec[i] ^= cooked[i]
	}
}

// lehmerWords sets each register word to its Lehmer part for the normalised
// seed x (1 ≤ x < 2³¹−1): the word's three Lehmer values packed at bit
// offsets 40, 20 and 0.
func lehmerWords(vec *[regLen]int64, x uint64) {
	for i := range vec {
		p := &powers[i]
		vec[i] = int64(mulMod(x, uint64(p[0]))<<40 ^ mulMod(x, uint64(p[1]))<<20 ^ mulMod(x, uint64(p[2])))
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1). The product is below
// 2⁶², so one fold of the high bits onto the low ones leaves a sum below
// 2·(2³¹−1); it is never a multiple of the prime, so one subtraction ends it.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}

// Uint64 returns the next 64-bit value.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value as a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }
