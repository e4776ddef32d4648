package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// drawsPerMethod is how many draws each method is compared over per
// seed — past one full 607-word cycle of the generator state.
const drawsPerMethod = 700

// compareStreams draws from math/rand's source and this one, both
// seeded with seed, method by method on one continuing stream, and
// fails at the first differing draw.
func compareStreams(t *testing.T, want, got *rand.Rand, seed int64) {
	t.Helper()
	for i := 0; i < drawsPerMethod; i++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	for i := 0; i < drawsPerMethod; i++ {
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
		}
	}
	for i := 0; i < drawsPerMethod; i++ {
		if w, g := want.Float64(), got.Float64(); w != g {
			t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
		}
	}
	for i := 0; i < drawsPerMethod; i++ {
		if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
			t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i, g, w)
		}
	}
	for i := 0; i < drawsPerMethod; i++ {
		n := 1 + i%97
		if i%5 == 0 {
			n = 1<<40 + i // the 63-bit rejection path
		}
		if w, g := want.Intn(n), got.Intn(n); w != g {
			t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, g, w)
		}
	}
	for _, n := range []int{0, 1, 2, 7, 50, 120} {
		w, g := want.Perm(n), got.Perm(n)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seed %d: Perm(%d) = %v, want %v", seed, n, g, w)
			}
		}
	}
}

// TestMatchesMathRand pins the determinism contract: for edge seeds and
// 10⁴ random ones, every draw method yields math/rand's stream.
func TestMatchesMathRand(t *testing.T) {
	edge := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, int32max, int32max + 1, -int32max, 2 * int32max, zeroSeed}
	seedGen := rand.New(rand.NewSource(20131209))
	seeds := append([]int64(nil), edge...)
	for i := 0; i < 10000; i++ {
		s := seedGen.Int63()
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	want := rand.New(rand.NewSource(0))
	src := new(Source)
	got := rand.New(src)
	for _, seed := range seeds {
		want.Seed(seed)
		got.Seed(seed)
		compareStreams(t, want, got, seed)
	}
	// New and a reseeded Source agree.
	a, b := New(42), new(Source)
	b.Seed(7)
	b.Seed(42)
	for i := 0; i < drawsPerMethod; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("reseeded source diverges at draw %d: %d vs %d", i, y, x)
		}
	}
}

// TestMulmod checks the division-free reduction against the direct one
// at the operand bounds.
func TestMulmod(t *testing.T) {
	vals := []uint64{1, 2, seedA, zeroSeed, int32max - 1, int32max - 2, 1 << 30, 1<<31 - 3}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := mulmod(a, b), a*b%int32max; got != want {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func BenchmarkSeed(b *testing.B) {
	s := new(Source)
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedMathRand is the baseline BenchmarkSeed replaces.
func BenchmarkSeedMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(0))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
