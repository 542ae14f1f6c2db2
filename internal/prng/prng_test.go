package prng

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds math/rand's normalisation treats specially: zero
// and the multiples of 2³¹−1 (all replaced by one fixed seed), negatives
// (shifted up by the modulus) and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerMod - 1, lehmerMod, lehmerMod + 1, -lehmerMod, 2 * lehmerMod, -2 * lehmerMod,
	lehmerMod * (math.MaxInt64 / lehmerMod), -lehmerMod * (math.MaxInt64 / lehmerMod),
	zeroSeed, -zeroSeed, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// testSeeds is edgeSeeds plus n seeds drawn at random.
func testSeeds(n int) []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(20261019))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// sameDraws compares n rounds of the rand.Rand methods the simulator draws
// through, plus Uint64, drawn from got and want, and reports the first
// difference.
func sameDraws(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d round %d: Uint64 %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d round %d: Int63 %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("seed %d round %d: Float64 %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("seed %d round %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
		}
		bound := i%1000 + 1
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Fatalf("seed %d round %d: Intn(%d) %d, math/rand %d", seed, i, bound, g, w)
		}
		bound63 := int64(uint64(i)*0x9E3779B97F4A7C15>>(2+i%40)) + 1
		if g, w := got.Int63n(bound63), want.Int63n(bound63); g != w {
			t.Fatalf("seed %d round %d: Int63n(%d) %d, math/rand %d", seed, i, bound63, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds(24) {
		sameDraws(t, seed, rand.New(New(seed)), rand.New(rand.NewSource(seed)), 10000)
	}
}

// TestReseedInPlace reseeds a used Source, directly and through rand.Rand.Seed
// (how the simulator recycles its streams), and requires the fresh stream.
func TestReseedInPlace(t *testing.T) {
	seeds := testSeeds(8)
	s := New(seeds[len(seeds)-1])
	r := rand.New(s)
	for i, seed := range seeds {
		for j := 0; j < 1000+i; j++ {
			r.Uint64()
		}
		if i%2 == 0 {
			s.Seed(seed)
		} else {
			r.Seed(seed)
		}
		sameDraws(t, seed, r, rand.New(rand.NewSource(seed)), 2000)
	}
}

func TestMulMod(t *testing.T) {
	for _, c := range [][2]uint64{{1, 1}, {lehmerMod - 1, lehmerMod - 1}, {lehmerMod - 1, 2}, {lehmerMul, zeroSeed}, {1 << 30, 1 << 30}} {
		if got, want := mulMod(c[0], c[1]), c[0]*c[1]%lehmerMod; got != want {
			t.Errorf("mulMod(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestSeedAllocs(t *testing.T) {
	s := New(1)
	r := rand.New(s)
	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() { seed++; r.Seed(seed); r.Uint64() }); a != 0 {
		t.Errorf("reseeding allocates %v times, want 0", a)
	}
}

// FuzzSeedMatchesMathRand compares a seed's first draws, past the first
// wrap of the register, with math/rand's.
func FuzzSeedMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sameDraws(t, seed, rand.New(New(seed)), rand.New(rand.NewSource(seed)), 250)
	})
}

func BenchmarkSeed(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedMathRand is the seed Source replaces, for comparison.
func BenchmarkSeedMathRand(b *testing.B) {
	s := rand.NewSource(1)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.Seed(int64(i))
	}
}
